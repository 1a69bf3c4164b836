package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the self-check reads.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfCheck runs every workload once at tiny scale, untraced and
// traced, and checks the emitted result against BENCHMARK.json: every
// named metric present with its unit and a finite value, nothing
// else, and no failed operation.
func TestSelfCheck(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkDoc
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark reports %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for _, w := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: w.Name, seed: 1, seconds: 1, trace: traced, dir: filepath.Join(t.TempDir(), "run")}
			res, err := run(cfg, "tiny")
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): no %s", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace %v): %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

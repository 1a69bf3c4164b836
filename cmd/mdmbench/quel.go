package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/mdm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/value"
)

// quelBenchDoc is the BENCH_quel.json document: per-workload timings for
// the cost-based planner against the retained naive executor, plus the
// planner's choice counters from the metrics registry.
type quelBenchDoc struct {
	SchemaVersion int               `json:"schema_version"`
	Scale         quelScale         `json:"scale"`
	Workloads     []quelWorkload    `json:"workloads"`
	PlanCounters  map[string]uint64 `json:"plan_counters"`
}

type quelScale struct {
	Notes  int `json:"notes"`
	Scores int `json:"scores"`
}

type quelWorkload struct {
	Name             string  `json:"name"`
	Query            string  `json:"query"`
	Rows             int     `json:"rows"`
	NaiveNsPerStmt   int64   `json:"naive_ns_per_stmt"`
	PlannerNsPerStmt int64   `json:"planner_ns_per_stmt"`
	PlannerRowsPerS  float64 `json:"planner_rows_per_sec"`
	Speedup          float64 `json:"speedup"`
}

const quelBenchSchemaVersion = 2

// quelBenchScale is the corpus size shared by -quel and -par: 100k
// notes across 1k scores at full scale (the multi-score analytic
// workload both benches gate on), reduced for -quick.
func quelBenchScale(quick bool) quelScale {
	if quick {
		return quelScale{Notes: 4000, Scores: 50}
	}
	return quelScale{Notes: 100000, Scores: 1000}
}

// buildScoreCorpus defines the SCORE/NOTE schema with the
// note_in_score ordering and a pitch index, then loads scale.Notes
// notes spread round-robin across scale.Scores scores.  Pitches cycle
// deterministically through the MIDI range.
func buildScoreCorpus(ctx context.Context, m *mdm.MDM, sess *mdm.Session, scale quelScale) error {
	for _, src := range []string{
		`define entity SCORE (name = integer)`,
		`define entity NOTE (name = integer, pitch = integer, score = integer)`,
		`define ordering note_in_score (NOTE) under SCORE`,
		`define index on NOTE (pitch)`,
		`define index on NOTE (name)`,
	} {
		if _, err := sess.ExecContext(ctx, src); err != nil {
			return fmt.Errorf("ddl %q: %w", src, err)
		}
	}
	scores := make([]value.Ref, scale.Scores)
	var err error
	for i := range scores {
		scores[i], err = m.Model.NewEntity("SCORE", model.Attrs{"name": value.Int(int64(i))})
		if err != nil {
			return err
		}
	}
	for i := 0; i < scale.Notes; i++ {
		si := i % scale.Scores
		n, err := m.Model.NewEntity("NOTE", model.Attrs{
			"name":  value.Int(int64(i)),
			"pitch": value.Int(int64(i % 128)),
			"score": value.Int(int64(si)),
		})
		if err != nil {
			return err
		}
		if err := m.Model.InsertChild("note_in_score", scores[si], n, model.Last()); err != nil {
			return err
		}
	}
	return nil
}

// runQuel benchmarks the query planner: it loads the shared score/note
// corpus (100k notes across 1k scores at full scale), runs scan-heavy,
// join-heavy, and ordering-operator workloads through both executors,
// writes BENCH_quel.json, and fails if the join-heavy speedup regresses
// below 5x (skipped under -quick, whose scale is too small for stable
// ratios) or if the snapshot's planner counters are malformed.
func runQuel(path string, quick bool) error {
	scale := quelBenchScale(quick)

	m, err := mdm.Open(mdm.Options{SkipCMN: true})
	if err != nil {
		return err
	}
	defer m.Close()
	sess := m.NewSession()
	naive := m.NewSession()
	naive.SetNaivePlanner(true)
	ctx := context.Background()

	if err := buildScoreCorpus(ctx, m, sess, scale); err != nil {
		return err
	}

	workloads := []struct{ name, query string }{
		{"scan-index-point", `retrieve (n.name) where n.pitch = 64`},
		{"scan-index-range", `retrieve (n.name) where n.pitch >= 60 and n.pitch < 64`},
		{"join-heavy", fmt.Sprintf(`retrieve (n.name, s.name) where n.score = s.name and s.name < %d`, scale.Scores/5)},
		{"ordering-probe", fmt.Sprintf(`retrieve (n1.name) where n1 before n2 in note_in_score and n2.name = %d`, scale.Notes-1)},
		{"sort-elide", `retrieve (p = n.pitch) where n.pitch >= 120 sort by p desc`},
	}
	decls := `range of n, n1, n2 is NOTE
range of s is SCORE`
	if _, err := sess.ExecContext(ctx, decls); err != nil {
		return err
	}
	if _, err := naive.ExecContext(ctx, decls); err != nil {
		return err
	}

	doc := quelBenchDoc{SchemaVersion: quelBenchSchemaVersion, Scale: scale}
	for _, w := range workloads {
		pRows, pNs, err := timeQuery(ctx, sess, w.query)
		if err != nil {
			return fmt.Errorf("%s (planner): %w", w.name, err)
		}
		nRows, nNs, err := timeQuery(ctx, naive, w.query)
		if err != nil {
			return fmt.Errorf("%s (naive): %w", w.name, err)
		}
		if pRows != nRows {
			return fmt.Errorf("%s: planner returned %d rows, naive %d", w.name, pRows, nRows)
		}
		wl := quelWorkload{
			Name: w.name, Query: w.query, Rows: pRows,
			NaiveNsPerStmt: nNs, PlannerNsPerStmt: pNs,
		}
		if pNs > 0 {
			wl.Speedup = float64(nNs) / float64(pNs)
			wl.PlannerRowsPerS = float64(pRows) / (float64(pNs) / 1e9)
		}
		doc.Workloads = append(doc.Workloads, wl)
		fmt.Printf("%-18s rows=%-6d naive=%-12s planner=%-12s speedup=%.1fx\n",
			w.name, pRows, time.Duration(nNs), time.Duration(pNs), wl.Speedup)
	}

	// Snapshot and sanity-check the planner counters: the workloads above
	// must have exercised index scans, hash joins, and ordering probes
	// that fetch their partners by ref.
	snap := m.Obs().Doc()
	if err := obs.ValidateDoc(snap); err != nil {
		return err
	}
	doc.PlanCounters = map[string]uint64{}
	for _, mt := range snap.Metrics {
		if len(mt.Name) > 10 && mt.Name[:10] == "quel.plan." {
			doc.PlanCounters[mt.Name] = mt.Value
		}
	}
	for _, name := range []string{"quel.plan.scan.index", "quel.plan.join.hash", "quel.plan.join.probe", "quel.plan.scan.fetch", "quel.plan.hash.hits"} {
		if doc.PlanCounters[name] == 0 {
			return fmt.Errorf("expected nonzero planner counter %s", name)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	if !quick {
		for _, wl := range doc.Workloads {
			if wl.Name == "join-heavy" && wl.Speedup < 5 {
				return fmt.Errorf("join-heavy speedup %.2fx below the 5x floor", wl.Speedup)
			}
		}
	}
	return nil
}

// timeQuery measures one query's per-statement latency: a warm-up run
// (whose row count is returned), then repeated runs until 300ms or 50
// iterations, whichever comes first.
func timeQuery(ctx context.Context, sess *mdm.Session, query string) (rows int, nsPerStmt int64, err error) {
	res, err := sess.QueryContext(ctx, query)
	if err != nil {
		return 0, 0, err
	}
	rows = len(res.Rows)
	var iters int
	start := time.Now()
	for iters = 0; iters < 50 && time.Since(start) < 300*time.Millisecond; iters++ {
		if _, err := sess.QueryContext(ctx, query); err != nil {
			return 0, 0, err
		}
	}
	return rows, time.Since(start).Nanoseconds() / int64(iters), nil
}

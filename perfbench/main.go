// Command perfbench is the repository's benchmark.  It hosts the music
// data manager and its wire server in this process, builds a seeded
// corpus, drives one workload for a fixed time, checks every answer,
// and prints one JSON result line last:
//
//	perfbench --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing calls
// into each layer's public functions and reading the obs registry.
// README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scale sizes a run's corpus.  Full scale is what the benchmark
// measures; tiny scale is for the self-check.
type scale struct {
	notes, scores int // score/note corpus
	works         int // catalogue works hosted beside the score corpus
	ingestWorks   int // works streamed by catalog-ingest
}

var scales = map[string]scale{
	"full": {notes: 100_000, scores: 1_000, works: 2_000, ingestWorks: 12_000},
	"tiny": {notes: 2_000, scores: 20, works: 200, ingestWorks: 600},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	dir      string // scratch directory for this run's stores
	traceDir string // where traced runs write their spans
}

// outcome is what a workload reports.  roles holds the end-to-end
// metrics by their shared names; named holds the same measurements
// under the workload's own names; layers holds the per-layer metrics.
type outcome struct {
	attempted, failed int64
	invalid           []string // reasons the measurement is not valid
	roles             map[string]float64
	named             map[string]metric
	tails             map[string]tail
	layers            map[string]metric
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		roles:  map[string]float64{},
		named:  map[string]metric{},
		tails:  map[string]tail{},
		layers: map[string]metric{},
		notes:  map[string]any{},
	}
}

// fail counts a failed operation or correctness check.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units.  ops_per_cpu_s is a workload's operations per second of
// this process's CPU time; the wall-clock rate beside it is printed
// under the workload's own name.  BENCHMARK.json names the same set.  Tails and write
// latencies are reported under the workloads' own names but not here:
// between runs they move more than any bound the benchmark may set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"read_iqm_ms", "ms"},
	{"read2_iqm_ms", "ms"},
	{"ops_per_cpu_s", "1/cpu-s"},
	{"write_bytes_per_user_byte", "B/B"},
}

var workloads = map[string]func(*config, *outcome) error{
	"serve-mix":       runServeMix,
	"score-analytics": runAnalytics,
	"catalog-ingest":  runIngest,
}

func main() {
	var cfg config
	var scaleName string
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-mix, score-analytics or catalog-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&scaleName, "scale", "full", "corpus scale: full or tiny")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(&cfg, scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and prints its detail lines; the caller
// prints the result line.
func run(cfg *config, scaleName string) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sc, ok := scales[scaleName]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scaleName)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	cfg.sc = sc
	cfg.traceDir = filepath.Join(filepath.Dir(cfg.dir), "traces")
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	o := newOutcome()
	if err := fn(cfg, o); err != nil {
		return nil, err
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", cfg.workload)
	}
	res := &result{
		Correct:   o.failed == 0 && len(o.invalid) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for name, m := range o.layers {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("%s produced no %s", cfg.workload, name)
			}
		}
		res.Metrics = o.layers
	} else {
		for _, m := range endToEnd {
			v, ok := o.roles[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s produced no %s", cfg.workload, m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	o.named["fail_frac"] = metric{Value: float64(o.failed) / float64(o.attempted), Unit: "frac"}
	detail := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds,
		"trace":     cfg.trace,
		"scale":     scaleName,
		"gomaxproc": runtime.GOMAXPROCS(0),
		"host":      "in-process mdm + wire server on loopback; SyncCommits+GroupCommit durable commits, snapshot reads, serial executor",
		"valid":     len(o.invalid) == 0,
		"invalid":   o.invalid,
		"metrics":   o.named,
		"tails":     o.tails,
		"notes":     o.notes,
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	names := make([]string, 0, len(o.named))
	for n := range o.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, o.named[n].Value, o.named[n].Unit)
	}
	return res, nil
}

// repeatSetup runs setup n times and keeps the last result, tearing
// down the others, so set-up time is a median of n.  Each setup gets
// its own directory.
func repeatSetup[T any](cfg *config, n int, setup func(dir string) (T, error), teardown func(T) error) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("store%d", i))
		start := time.Now()
		v, err := setup(dir)
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return keep, 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return keep, 0, err
			}
			continue
		}
		keep = v
	}
	return keep, median(secs), nil
}

// setupRepeats is how many times each run sets up its corpus.
const setupRepeats = 3

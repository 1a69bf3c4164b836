// Command benchdiff compares freshly produced BENCH_*.json documents
// against the baselines committed in git and fails on floor-point
// regressions.
//
// Usage:
//
//	benchdiff [-fresh DIR] [-ref HEAD] [-threshold 0.30] [file ...]
//
// For each file (default: every known BENCH_*.json), the committed
// baseline is read with `git show REF:FILE` and the fresh copy from
// -fresh DIR.  All numeric leaves are flattened to dotted paths — array
// elements are labelled by their discriminator fields (name, readers,
// writers) so sweep points line up across runs — and printed as a
// per-metric delta table.  The exit status is nonzero if any floor
// point (the speedups the benches themselves gate on, plus absolute
// rates such as the ordering probe's rows per second) regressed by more
// than -threshold, or if a fresh document lost its floor point
// entirely.  Files with no committed baseline yet are
// reported and skipped, so the first run of a new bench cannot fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// floorKeys names, per document, the flattened paths the benches gate
// on.  Only these participate in the regression check; everything else
// is informational.
var floorKeys = map[string][]string{
	"BENCH_commit.json": {"sweep[writers=16].speedup"},
	"BENCH_quel.json":   {"workloads[join-heavy].speedup", "workloads[ordering-probe].planner_rows_per_sec"},
	"BENCH_par.json":    {"sweep[workers=8].par_speedup"},
	"BENCH_read.json":   {"sweep[readers=4,writers=4].speedup"},
	"BENCH_repl.json":   {"sweep[replicas=4].scaling"},
	"BENCH_net.json":    {"sweep[clients=16].write_speedup"},
	"BENCH_ckpt.json":   {"ckpt_stall_improvement"},
	"BENCH_ingest.json": {"ingest_speedup", "query_speedup"},
	"BENCH_obs.json":    {}, // structural baseline; no perf floor
}

func main() {
	fresh := flag.String("fresh", ".", "directory holding freshly produced BENCH_*.json")
	ref := flag.String("ref", "HEAD", "git revision holding the committed baselines")
	threshold := flag.Float64("threshold", 0.30, "max tolerated fractional regression at floor points")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		for f := range floorKeys {
			files = append(files, f)
		}
		sort.Strings(files)
	}

	failed := false
	for _, file := range files {
		if err := diffFile(file, *fresh, *ref, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", file, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// diffFile prints the delta table for one document and returns an error
// on a floor-point regression.
func diffFile(file, freshDir, ref string, threshold float64) error {
	freshRaw, err := os.ReadFile(filepath.Join(freshDir, file))
	if err != nil {
		return fmt.Errorf("fresh document: %w", err)
	}
	freshVals, err := flattenDoc(freshRaw)
	if err != nil {
		return fmt.Errorf("fresh document: %w", err)
	}

	baseRaw, err := exec.Command("git", "show", ref+":"+file).Output()
	if err != nil {
		fmt.Printf("== %s: no baseline at %s; skipped (commit the fresh run to create one)\n\n", file, ref)
		return nil
	}
	baseVals, err := flattenDoc(baseRaw)
	if err != nil {
		return fmt.Errorf("baseline at %s: %w", ref, err)
	}

	floors := map[string]bool{}
	for _, k := range floorKeys[file] {
		floors[k] = true
	}

	keys := make([]string, 0, len(freshVals))
	seen := map[string]bool{}
	for k := range freshVals {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range baseVals {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	fmt.Printf("== %s (baseline %s)\n", file, ref)
	w := 0
	for _, k := range keys {
		if len(k) > w {
			w = len(k)
		}
	}
	var regressions []string
	for _, k := range keys {
		oldV, hasOld := baseVals[k]
		newV, hasNew := freshVals[k]
		mark := " "
		if floors[k] {
			mark = "*"
		}
		switch {
		case !hasOld:
			fmt.Printf("%s %-*s  %14s  %14.4g  (new)\n", mark, w, k, "-", newV)
		case !hasNew:
			fmt.Printf("%s %-*s  %14.4g  %14s  (gone)\n", mark, w, k, oldV, "-")
			if floors[k] {
				regressions = append(regressions, fmt.Sprintf("%s: floor point missing from fresh run", k))
			}
		default:
			delta := "n/a"
			if oldV != 0 {
				delta = fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
			}
			fmt.Printf("%s %-*s  %14.4g  %14.4g  %s\n", mark, w, k, oldV, newV, delta)
			if floors[k] && oldV > 0 && newV < oldV*(1-threshold) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.4g -> %.4g (%.1f%% below baseline, threshold %.0f%%)",
						k, oldV, newV, (1-newV/oldV)*100, threshold*100))
			}
		}
	}
	for _, k := range floorKeys[file] {
		if _, ok := baseVals[k]; !ok {
			fmt.Printf("  (floor key %s absent from baseline; not gated)\n", k)
		}
	}
	fmt.Println()
	if len(regressions) > 0 {
		return fmt.Errorf("floor regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// flattenDoc decodes a JSON document and flattens every numeric leaf to
// a dotted path.
func flattenDoc(raw []byte) (map[string]float64, error) {
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	flatten(doc, "", out)
	return out, nil
}

func flatten(v any, path string, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(child, p, out)
		}
	case []any:
		for i, child := range x {
			flatten(child, path+"["+elemLabel(child, i)+"]", out)
		}
	case float64:
		out[path] = x
	}
}

// elemLabel identifies an array element across runs: by its "name"
// field, else by its sweep-point coordinates
// (replicas/readers/writers/clients), else by position.
func elemLabel(v any, i int) string {
	obj, ok := v.(map[string]any)
	if !ok {
		return fmt.Sprint(i)
	}
	if name, ok := obj["name"].(string); ok && name != "" {
		return name
	}
	var parts []string
	for _, k := range []string{"replicas", "readers", "writers", "clients", "workers"} {
		if n, ok := obj[k].(float64); ok {
			parts = append(parts, fmt.Sprintf("%s=%.0f", k, n))
		}
	}
	if len(parts) > 0 {
		return strings.Join(parts, ",")
	}
	return fmt.Sprint(i)
}

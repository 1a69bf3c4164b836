package quel

import (
	"context"

	"repro/internal/exec"
	"repro/internal/value"
)

// This file fans the read path across internal/exec's morsel-driven
// worker pool (SetParallel).  Three sites parallelize, all gated on a
// pinned MVCC snapshot — Snap reads are safe for concurrent use, the
// locking path is not — and on enough rows to amortize the fork/merge:
//
//   - index-scan materialization: the key range splits at the index's
//     stored partition boundaries and sub-ranges scan concurrently;
//   - hash-table builds: fixed chunks of the build side hash on the
//     pool and the partial tables merge chunk-by-chunk;
//   - the join pipeline: the driver (first step's) binding list splits
//     into morsels, workers pull morsels from an atomic counter and run
//     the remaining steps serially per driver row into per-morsel row
//     buffers.
//
// Every merge concatenates partial results in partition/morsel order,
// so each site reproduces the serial executor's output byte-for-byte —
// the three-way differential test (parallel vs. serial vs. naive)
// asserts exactly that, and the serial executor remains reachable by
// simply not calling SetParallel.

// defaultParMinRows gates parallel execution: below this many driver
// rows the fork/merge overhead dominates any speedup.
const defaultParMinRows = 2048

// morselsPerWorker oversubscribes morsels so workers that finish small
// morsels early can steal remaining work (skewed scores self-balance).
const morselsPerWorker = 4

// parallelOK reports whether the materialized join may run on the pool:
// parallelism requested, snapshot pinned (concurrent reads are safe and
// the statement is read-only), a live emitter (the collector we know how
// to clone per worker), and a driver list big enough to bother.
func (s *Session) parallelOK(steps []*joinStep) bool {
	return s.parWorkers > 1 && s.snap != nil && s.emit != nil &&
		len(steps) > 0 && len(steps[0].vp.list) >= s.parMin
}

// workerClone returns a shallow session copy for one worker: shared
// database, snapshot, and atomic counters; private statement cache and
// plan statistics so the per-row hot path stays lock-free.  The clone
// never parallelizes further (parWorkers is zero).
func (s *Session) workerClone() *Session {
	return &Session{
		db:     s.db,
		ranges: s.ranges,
		m:      s.m,
		pm:     s.pm,
		ps:     &planStats{},
		snap:   s.snap,
		cache:  newStmtCache(),
	}
}

// runParallelJoin drives the planned steps over the worker pool and
// merges rows, statistics, and counters back into the session.
func (s *Session) runParallelJoin(ctx context.Context, steps []*joinStep) error {
	driver := steps[0].vp.list
	workers := s.parWorkers
	morsels := workers * morselsPerWorker
	if morsels > len(driver) {
		morsels = len(driver)
	}
	chunk := (len(driver) + morsels - 1) / morsels
	morsels = (len(driver) + chunk - 1) / chunk
	if workers > morsels {
		workers = morsels
	}
	s.pm.parQueries.Inc()
	s.pm.parMorsels.Add(uint64(morsels))

	type workerState struct {
		w      *Session
		em     *emitter
		counts []stepCount
		combos int
	}
	states := make([]*workerState, workers)
	rowsByMorsel := make([][]value.Tuple, morsels)
	partEst := make([]int, morsels)
	err := exec.Run(ctx, workers, morsels, func(ctx context.Context, wi, m int) error {
		ws := states[wi]
		if ws == nil {
			w := s.workerClone()
			ws = &workerState{w: w, em: &emitter{s: w, q: s.emit.q, ps: w.ps},
				counts: make([]stepCount, len(steps))}
			states[wi] = ws
		}
		lo, hi := m*chunk, (m+1)*chunk
		if hi > len(driver) {
			hi = len(driver)
		}
		partEst[m] = hi - lo
		ws.em.rows = nil
		run := &stepRun{s: ws.w, ctx: ctx, steps: steps, counts: ws.counts,
			e: make(env, len(steps)), fn: ws.em.emit}
		for li := lo; li < hi; li++ {
			run.e[steps[0].vp.name] = driver[li]
			if err := run.rec(1); err != nil {
				return err
			}
		}
		ws.combos += run.combos
		rowsByMorsel[m] = ws.em.rows
		return nil
	})
	if err != nil {
		return err
	}

	// Concatenating per-morsel buffers in morsel order reproduces the
	// serial emit order exactly, so unique/sort/compare downstream see
	// no difference.
	total := 0
	for _, rs := range rowsByMorsel {
		total += len(rs)
	}
	merged := make([]value.Tuple, 0, total)
	partRows := make([]int, morsels)
	for m, rs := range rowsByMorsel {
		partRows[m] = len(rs)
		merged = append(merged, rs...)
	}
	s.emit.rows = append(s.emit.rows, merged...)

	combos := 0
	counts := make([]stepCount, len(steps))
	for _, ws := range states {
		if ws == nil {
			continue
		}
		combos += ws.combos
		for k := range counts {
			counts[k].probes += ws.counts[k].probes
			counts[k].hits += ws.counts[k].hits
			counts[k].fetched += ws.counts[k].fetched
		}
		if s.ps != nil {
			s.ps.FilterIn += ws.w.ps.FilterIn
			s.ps.FilterOut += ws.w.ps.FilterOut
			s.ps.OrderEvals += ws.w.ps.OrderEvals
			s.ps.OrderDur += ws.w.ps.OrderDur
		}
	}
	// The driver step is scanned once as morsels, not probed per row.
	counts[0] = stepCount{probes: 1, hits: len(driver)}
	s.m.combos.Add(uint64(combos))
	if s.ps != nil {
		s.ps.Combos = combos
		s.ps.Par = &parStats{Workers: workers, Morsels: morsels,
			PartEst: partEst, PartRows: partRows}
		s.recordSteps(steps, counts)
	}
	return nil
}

// scanIndexParallel materializes an index range scan by splitting the
// key range at the index's partition boundaries and scanning sub-ranges
// on the pool.  Sub-lists concatenate in key order, so the binding list
// is identical to the serial scan's.  Returns did=false when the scan
// does not qualify (no snapshot, descending order, too small, or the
// index cannot be split) and the caller falls through to the serial
// path.
func (s *Session) scanIndexParallel(ctx context.Context, vp *varPlan, st *scanStats) (bool, error) {
	snap := s.snap
	if snap == nil || s.parWorkers <= 1 || vp.access.reverse || vp.access.est < s.parMin {
		return false, nil
	}
	bounds, ok := s.db.SplitInstancesRange(vp.info.typ, vp.access.index, vp.access.lo, vp.access.hi, s.parWorkers*2)
	if !ok || len(bounds) == 0 {
		return false, nil
	}
	edges := make([][]byte, 0, len(bounds)+2)
	edges = append(edges, vp.access.lo)
	edges = append(edges, bounds...)
	edges = append(edges, vp.access.hi)
	parts := len(edges) - 1
	type partOut struct {
		list          []binding
		scanned, kept int
	}
	outs := make([]partOut, parts)
	err := exec.Run(ctx, s.parWorkers, parts, func(_ context.Context, _, p int) error {
		po := &outs[p]
		return snap.InstancesRange(vp.info.typ, vp.access.index, edges[p], edges[p+1], false,
			func(ref value.Ref, attrs value.Tuple) bool {
				po.scanned++
				b := binding{ref: ref, attrs: attrs, fields: vp.info.fields, typ: vp.info.typ}
				if !sargMatches(vp.sargs, b.fields, b.attrs) {
					return true
				}
				po.kept++
				po.list = append(po.list, b)
				return true
			})
	})
	if err != nil {
		return true, err
	}
	for i := range outs {
		st.Scanned += outs[i].scanned
		st.Kept += outs[i].kept
		vp.list = append(vp.list, outs[i].list...)
	}
	st.Parts = parts
	s.pm.parMorsels.Add(uint64(parts))
	return true, nil
}

// buildHashTableParallel builds the same table as buildHashTable by
// hashing fixed chunks on the pool and merging the partial maps in
// ascending chunk order: every bucket's list indexes end up sorted
// exactly as the serial build leaves them, so probe iteration order —
// and therefore row order — is unchanged.
func (s *Session) buildHashTableParallel(vp *varPlan, build []joinKey) map[string][]int {
	n := len(vp.list)
	parts := s.parWorkers
	chunk := (n + parts - 1) / parts
	parts = (n + chunk - 1) / chunk
	partial := make([]map[string][]int, parts)
	// fn never fails and the context is never canceled here, so Run's
	// error is structurally nil.
	_ = exec.Run(context.Background(), s.parWorkers, parts, func(_ context.Context, _, p int) error {
		lo, hi := p*chunk, (p+1)*chunk
		if hi > n {
			hi = n
		}
		h := make(map[string][]int, hi-lo)
		var buf []byte
		for li := lo; li < hi; li++ {
			buf = buf[:0]
			for _, k := range build {
				buf = appendHashKey(buf, k.value(vp.list[li]))
			}
			h[string(buf)] = append(h[string(buf)], li)
		}
		partial[p] = h
		return nil
	})
	out := partial[0]
	for _, h := range partial[1:] {
		for k, lis := range h {
			out[k] = append(out[k], lis...)
		}
	}
	s.pm.parMorsels.Add(uint64(parts))
	return out
}

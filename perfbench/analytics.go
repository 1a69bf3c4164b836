package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/mdm"
	"repro/internal/value"
)

// score-analytics statement kinds.
const (
	aBefore = iota // n1 before n2 in note_in_score, anchor n2 by name
	aJoin          // notes of a band of scores: hash join on n.score = s.name
	aAfter         // n1 after n2
	aRange         // index range on NOTE.pitch
	aUnder         // n under s: a score's notes
	aSort          // range on NOTE.pitch, sort elided by the index
	aKinds
)

var analyticsSrc = []string{
	aBefore: `range of n1, n2 is NOTE retrieve (n1.name) where n1 before n2 in note_in_score and n2.name = $1`,
	aJoin:   `range of n is NOTE range of s is SCORE retrieve (n.name, s.name) where n.score = s.name and s.name >= $1 and s.name < $2`,
	aAfter:  `range of n1, n2 is NOTE retrieve (n1.name) where n1 after n2 in note_in_score and n2.name = $1`,
	aRange:  `range of n is NOTE retrieve (n.name, n.pitch) where n.pitch >= $1 and n.pitch < $2`,
	aUnder:  `range of n is NOTE range of s is SCORE retrieve (n.name) where n under s in note_in_score and s.name = $1`,
	aSort:   `range of n is NOTE retrieve (p = n.pitch, n.name) where n.pitch >= $1 sort by p desc`,
}

var analyticsClass = []string{aBefore: "read", aJoin: "read2", aAfter: "read", aRange: "other", aUnder: "read", aSort: "other"}

// analyticsCycle is the order the query connection cycles through; a
// join comes twice so the join median rests on as many samples as the
// ordering probes'.
var analyticsCycle = []int{aBefore, aJoin, aAfter, aRange, aUnder, aJoin, aSort}

// joinBand is how many scores one join covers.
const joinBand = 10

// analyticsWriteRate is the background replace rate on NOTE, in
// replaces per second: low, but enough that version chains and index
// history trees are non-trivial.
const analyticsWriteRate = 50.0

// analyticsCkptBytes triggers background checkpoints from the
// background replaces alone: about 12 s of their log (some 4 KB/s), so
// two checkpoints start in a 30 s run and the third would start well
// after it.
const analyticsCkptBytes = 48 << 10

// analyticsStmt is one generated statement: its kind and arguments.
type analyticsStmt struct {
	kind int
	a, b int64
}

func genAnalytics(rng *rand.Rand, i int, sc *scores) analyticsStmt {
	st := analyticsStmt{kind: analyticsCycle[i%len(analyticsCycle)]}
	switch st.kind {
	case aBefore, aAfter:
		st.a = rng.Int63n(int64(sc.nNotes))
	case aJoin:
		st.a = rng.Int63n(int64(sc.nScores - joinBand))
		st.b = st.a + joinBand
	case aRange:
		st.a = rng.Int63n(126)
		st.b = st.a + 2
	case aUnder:
		st.a = rng.Int63n(int64(sc.nScores))
	case aSort:
		st.a = 124 + rng.Int63n(3)
	}
	return st
}

func (st analyticsStmt) args() []any {
	if st.kind == aJoin || st.kind == aRange {
		return []any{st.a, st.b}
	}
	return []any{st.a}
}

// checkAnalytics verifies a statement's rows against the corpus: an
// ordering probe returns exactly the anchor's rank-many siblings.
func checkAnalytics(st analyticsStmt, rows []value.Tuple, sc *scores) error {
	ns, per := int64(sc.nScores), int64(sc.perScore())
	switch st.kind {
	case aBefore, aAfter:
		rank := st.a / ns
		want := rank
		if st.kind == aAfter {
			want = per - 1 - rank
		}
		if int64(len(rows)) != want {
			return fmt.Errorf("ordering probe on %d returned %d rows, want %d", st.a, len(rows), want)
		}
		for _, r := range rows {
			n := r[0].AsInt()
			if n%ns != st.a%ns || (st.kind == aBefore) != (n < st.a) || n == st.a {
				return fmt.Errorf("ordering probe on %d returned note %d", st.a, n)
			}
		}
	case aJoin:
		if int64(len(rows)) != joinBand*per {
			return fmt.Errorf("join on scores [%d,%d) returned %d rows, want %d", st.a, st.b, len(rows), joinBand*per)
		}
		for _, r := range rows {
			if r[0].AsInt()%ns != r[1].AsInt() || r[1].AsInt() < st.a || r[1].AsInt() >= st.b {
				return fmt.Errorf("join returned %v", r)
			}
		}
	case aRange:
		for _, r := range rows {
			if p := r[1].AsInt(); p < st.a || p >= st.b {
				return fmt.Errorf("pitch range [%d,%d) returned %v", st.a, st.b, r)
			}
		}
	case aUnder:
		if int64(len(rows)) != per {
			return fmt.Errorf("score %d has %d notes, want %d", st.a, len(rows), per)
		}
		for _, r := range rows {
			if r[0].AsInt()%ns != st.a {
				return fmt.Errorf("score %d returned note %v", st.a, r)
			}
		}
	case aSort:
		for i, r := range rows {
			if r[0].AsInt() < st.a || i > 0 && r[0].AsInt() > rows[i-1][0].AsInt() {
				return fmt.Errorf("sorted range from %d returned %v at %d", st.a, r, i)
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("sorted range from %d returned nothing", st.a)
		}
	}
	return nil
}

func runAnalytics(cfg *config, o *outcome) error {
	ctx := context.Background()
	su, setupS, err := setupServed(cfg, analyticsCkptBytes)
	if err != nil {
		return err
	}
	h := su.h
	defer h.close()
	sc := su.sc

	qcl, err := h.dial(1)
	if err != nil {
		return err
	}
	defer qcl.Close()
	wcl, err := h.dial(1)
	if err != nil {
		return err
	}
	defer wcl.Close()
	stmts := make([]*client.Stmt, aKinds)
	for k, src := range analyticsSrc {
		stmts[k] = qcl.Prepare(src)
	}
	rep := wcl.Prepare(replaceSrc)

	var tr *tracer
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		tr = newTracer()
		dur /= 2
	}

	// measure runs the query loop closed (next statement after the
	// previous answer) for d, with the replace writer running open loop
	// beside it.
	qrng := rand.New(rand.NewSource(cfg.seed))
	wrng := rand.New(rand.NewSource(cfg.seed ^ 0x77))
	nextStmt := 0
	var userB float64
	var ubMu sync.Mutex
	measure := func(d time.Duration, tr *tracer) (lat map[string]*samples, done int64, secs float64, ws *loopStats) {
		lat = map[string]*samples{"read": {}, "read2": {}, "other": {}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = openLoop(analyticsWriteRate, d, 1, nil,
				func(i int64) op {
					return op{key: wrng.Int63n(int64(sc.nNotes)), arg: wrng.Int63n(128)}
				},
				func(w *op) (string, error) {
					res, err := rep.ExecContext(ctx, w.key, w.arg)
					if err != nil {
						return "write", err
					}
					if res.Affected != 1 {
						return "write", fmt.Errorf("replace %d affected %d", w.key, res.Affected)
					}
					ubMu.Lock()
					userB += userBytes(value.Int(w.arg))
					ubMu.Unlock()
					return "write", nil
				})
		}()
		start := time.Now()
		for time.Since(start) < d {
			st := genAnalytics(qrng, nextStmt, sc)
			nextStmt++
			o.attempted++
			root := tr.id()
			t0 := time.Now()
			res, err := stmts[st.kind].QueryContext(ctx, st.args()...)
			t1 := time.Now()
			if tr != nil {
				tr.add(tr.id(), "client.call", root, int64(nextStmt), t0, t1)
				tr.add(root, "op."+analyticsClass[st.kind], 0, int64(nextStmt), t0, t1)
			}
			if err == nil {
				err = checkAnalytics(st, res.Rows, sc)
			}
			if err != nil {
				o.failf("%v", err)
				continue
			}
			lat[analyticsClass[st.kind]].add(t1, t1.Sub(t0))
			done++
		}
		secs = time.Since(start).Seconds()
		wg.Wait()
		o.attempted += ws.attempted
		o.failed += ws.failed
		return lat, done, secs, ws
	}

	ph := beginPhase(h.m.Obs())
	cpu0 := cpuSeconds()
	lat, done, secs, ws := measure(dur, nil)
	cpu := cpuSeconds() - cpu0
	ph.end()
	if bad, why := ws.growing(analyticsWriteRate); bad {
		o.invalid = append(o.invalid, "writer: "+why)
	}
	order, join, writes := lat["read"].sorted(), lat["read2"].sorted(), ws.lat["write"].sorted()
	ot, wt := tailOf(order), tailOf(writes)
	o.tails["order_tail_ms"], o.tails["replace_tail_ms"] = ot, wt
	ubMu.Lock()
	ub := userB
	ubMu.Unlock()
	o.roles["setup_s"] = setupS
	o.roles["mem_peak_mb"] = ph.peakMB
	o.roles["read_iqm_ms"] = iqm(order)
	o.roles["read2_iqm_ms"] = iqm(join)
	o.roles["ops_s"] = float64(done) / secs
	o.roles["ops_per_cpu_s"] = float64(done) / cpu
	o.roles["write_bytes_per_user_byte"] = ph.writeBytesPerUserByte(o, ub)
	o.named["setup_s"] = metric{setupS, "s"}
	o.named["mem_peak_mb"] = metric{ph.peakMB, "MB"}
	o.named["stmts_s"] = metric{o.roles["ops_s"], "1/s"}
	o.named["stmts_per_cpu_s"] = metric{o.roles["ops_per_cpu_s"], "1/cpu-s"}
	o.named["order_p50_ms"] = metric{quantile(order, 0.5), "ms"}
	o.named["order_iqm_ms"] = metric{o.roles["read_iqm_ms"], "ms"}
	o.named["order_tail_ms"] = metric{ot.MS, "ms"}
	o.named["join_p50_ms"] = metric{quantile(join, 0.5), "ms"}
	o.named["join_iqm_ms"] = metric{o.roles["read2_iqm_ms"], "ms"}
	o.named["replace_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
	o.named["replace_tail_ms"] = metric{wt.MS, "ms"}
	o.named["write_bytes_per_user_byte"] = metric{o.roles["write_bytes_per_user_byte"], "B/B"}
	o.named["gen.late_ms"] = metric{ws.lateP99(), "ms"}
	o.notes["checkpoints"] = delta(ph.obs0, ph.obs1, "storage.checkpoint.ns")
	o.notes["flush_policy"] = fmt.Sprintf("SyncCommits+GroupCommit (fsync per group-commit batch), background checkpoint every %d log bytes", analyticsCkptBytes)
	o.notes["write_rate_ops_s"] = analyticsWriteRate

	if cfg.trace {
		ub0 := ub
		ph2 := beginPhase(h.m.Obs())
		lat2, _, _, ws2 := measure(dur, tr)
		ph2.end()
		ubMu.Lock()
		ub := userB - ub0
		ubMu.Unlock()
		ph2.commonLayers(o, ub)
		o.layers["trace.overhead_frac"] = metric{quantile(lat2["read"].sorted(), 0.5)/quantile(order, 0.5) - 1, "frac"}
		o.layers["gen.late_ms"] = metric{ws2.lateP99(), "ms"}
		wp50 := quantile(ws2.lat["write"].sorted(), 0.5)
		if err := analyticsProbes(ctx, h, su, stmts, rep, tr, o, cfg.seed); err != nil {
			return err
		}
		o.layers["model.bulk_insert_ms"] = metric{median(sc.batchMS), "ms"}
		o.layers["trace.wire_fsync_share.write"] = metric{
			ratio(o.layers["server.rtt_self_write_ms"].Value+o.layers["wal.fsync_ms"].Value, wp50), "frac"}
		versionLayers(o, h.m.Store)
		if err := tr.write(traceFile(cfg)); err != nil {
			return err
		}
	}
	return nil
}

// analyticsProbes runs the per-layer probes on score-analytics' inputs:
// ordering probes as the read class, joins as read2, replaces as write.
func analyticsProbes(ctx context.Context, h *host, su *serveSetup, stmts []*client.Stmt, rep *client.Stmt,
	tr *tracer, o *outcome, seed int64) error {
	sc := su.sc
	rng := rand.New(rand.NewSource(seed ^ 0x1234))
	anchors := make([]int64, probeIters)
	bands := make([]int64, probeIters)
	for i := range anchors {
		anchors[i] = rng.Int63n(int64(sc.nNotes))
		bands[i] = rng.Int63n(int64(sc.nScores - joinBand))
	}
	local := func(kind int, args func(i int) []any) func(*mdm.Session, int) (int, error) {
		stmt := prepared(ctx, analyticsSrc[kind])
		return func(sess *mdm.Session, i int) (int, error) {
			r, err := stmt(sess, args(i)...)
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		}
	}
	wire := func(kind int, args func(i int) []any) func(int) (int, error) {
		return func(i int) (int, error) {
			r, err := stmts[kind].QueryContext(ctx, args(i)...)
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		}
	}
	replace := prepared(ctx, replaceSrc)
	orderArgs := func(i int) []any { return []any{anchors[i]} }
	joinArgs := func(i int) []any { return []any{bands[i], bands[i] + joinBand} }
	// Writes re-store the value the anchor note already holds.
	pitchOf := func(i int) (int64, error) {
		v, err := h.m.Model.Attr(sc.noteRefs[anchors[i]], "pitch")
		return v.AsInt(), err
	}
	classes := []classProbe{
		{class: "read", wire: wire(aBefore, orderArgs), local: local(aBefore, orderArgs)},
		{class: "read2", wire: wire(aJoin, joinArgs), local: local(aJoin, joinArgs)},
		{class: "write",
			wire: func(i int) (int, error) {
				p, err := pitchOf(i)
				if err != nil {
					return 0, err
				}
				r, err := rep.ExecContext(ctx, anchors[i], p)
				if err != nil {
					return 0, err
				}
				return int(r.Affected), nil
			},
			local: func(sess *mdm.Session, i int) (int, error) {
				p, err := pitchOf(i)
				if err != nil {
					return 0, err
				}
				r, err := replace(sess, anchors[i], p)
				if err != nil {
					return 0, err
				}
				return r.Affected, nil
			}},
	}
	ixName, ok := h.m.Model.AttrIndexName("NOTE", "name")
	if !ok {
		return fmt.Errorf("no index on NOTE.name")
	}
	qrng := rand.New(rand.NewSource(seed ^ 0x51ED))
	t := probeTarget{entity: "NOTE", index: ixName, ordering: "note_in_score", stream: su.stream, texts: analyticsSrc}
	for i := 0; i < 16; i++ {
		t.queries = append(t.queries, cutQuery(qrng, su.works, 3+i%4))
	}
	for i, a := range anchors {
		t.anchors = append(t.anchors, sc.noteRefs[a])
		// The ordering probe binds its anchor by name; the join reads a
		// band of notes by name.
		if i%2 == 0 {
			t.bounds = append(t.bounds, keyBounds(a, a+1))
		} else {
			t.bounds = append(t.bounds, keyBounds(bands[i], bands[i]+joinBand*int64(sc.perScore())))
		}
	}
	return probeLayers(ctx, h, tr, o, classes, t)
}

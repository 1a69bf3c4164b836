package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/mdm"
	"repro/internal/value"
)

// serve-mix op kinds.
const (
	kPoint    = iota // prepared indexed point probe on NOTE
	kRange           // prepared 10-name range probe on NOTE
	kText            // unprepared text point probe, literal varies
	kPrepText        // point probe prepared from literal-bearing text
	kIncipit         // incipit search over the catalogue
	kAppend          // durable append to NOTE
	kReplace         // durable replace of NOTE.pitch
)

// serveMixWeights is the op mix in parts per thousand, by kind.  Reads
// and writes split 95:5, as in YCSB's read-mostly workload B and its
// read-latest workload D; the writes split evenly between D's inserts
// (appends) and B's updates (replaces).  Among reads, point probes
// dominate and short ranges are one in five; each text kind carries a
// distinct literal, more sources than the 256-entry statement cache
// holds but one shape for the plan cache.  README.md gives the basis of
// each weight.
var serveMixWeights = []int{kPoint: 600, kRange: 200, kText: 50, kPrepText: 50, kIncipit: 50, kAppend: 25, kReplace: 25}

var kindClass = []string{kPoint: "read", kRange: "read", kText: "read", kPrepText: "read", kIncipit: "read2", kAppend: "write", kReplace: "write"}

const (
	pointSrc   = `range of n is NOTE retrieve (n.pitch) where n.name = $1`
	pointText  = `range of n is NOTE retrieve (n.pitch) where n.name = %d`
	rangeSrc   = `range of n is NOTE retrieve (n.name, n.pitch) where n.name >= $1 and n.name < $2`
	appendSrc  = `append to NOTE (name = $1, pitch = $2, score = $3)`
	replaceSrc = `range of n is NOTE replace n (pitch = $2) where n.name = $1`
	incipitFmt = `range of e is CATALOG_ENTRY retrieve (e.number) where e incipit %q`
)

// serveQueries is how many distinct incipit searches a run draws from:
// enough that which ones a seed picks moves the search latencies
// little.
const serveQueries = 256

// serve-mix rates.  Latencies are reported at the nominal rate, about
// a third of the lowest median max_rate_ops_s measured on a 2-vCPU
// host (README.md gives the runs), so that a slow spell of the host
// does not push the read connection near saturation.  The ladder then
// climbs from twice the nominal rate in steps of ladderStep until a
// rate misses the read tail limit or its backlog grows, and bisects
// between the last rate that passed and the first that failed with
// its remaining rungs.  The limit sits above the checkpoint stalls
// this engine imposes at every rate, so the ladder finds where the
// queue stops draining rather than where a stall happens to land.
const (
	serveNominalRate = 3000.0
	readTailLimitMS  = 250.0
	ladderRungs      = 6
	ladderStep       = 1.3
)

// serveCkptBytes triggers a background checkpoint every this many log
// bytes: about 4.8 s of the main phase's log (some 11.5 KB/s at the
// nominal rate), so two checkpoints start in a 12 s main phase and the
// third would start well after it.  A phase then holds the same number
// of checkpoints on every run, and write_bytes_per_user_byte does not
// jump by one checkpoint's segment between runs.
const serveCkptBytes = 54 << 10

// version is one value a key held: valid from when the write that set
// it was sent until the write that replaced it was acknowledged.
type version struct {
	val      int64
	from, to time.Time
}

// serveState is the expected state of the store and the per-worker
// handles of a serve-mix run.
type serveState struct {
	h       *host
	sc      *scores
	queries []incipitQuery
	clients []*client.Client
	point   []*client.Stmt
	rng     []*client.Stmt
	app     []*client.Stmt
	rep     []*client.Stmt

	mu        sync.Mutex
	hist      map[int64][]version // keys written so far
	appended  []int64             // acknowledged appends
	incipit   map[int][]int64     // first result of each query
	userBytes float64
	errs      int
}

func (s *serveState) errorf(format string, args ...any) error {
	s.mu.Lock()
	s.errs++
	n := s.errs
	s.mu.Unlock()
	err := fmt.Errorf(format, args...)
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return err
}

// visible reports whether key could hold val at some time in
// [from, to].
func (s *serveState) visible(key, val int64, from, to time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hist[key]
	if !ok {
		return key < int64(s.sc.nNotes) && val == key%128
	}
	for _, v := range h {
		if v.val == val && !v.from.After(to) && (v.to.IsZero() || !v.to.Before(from)) {
			return true
		}
	}
	return false
}

// begin records a write being sent; ack records it acknowledged.
func (s *serveState) begin(key, val int64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hist[key]
	if h == nil && key < int64(s.sc.nNotes) {
		h = []version{{val: key % 128}}
	}
	s.hist[key] = append(h, version{val: val, from: at})
}

func (s *serveState) ack(key int64, at time.Time, ok bool, ub float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hist[key]
	n := len(h)
	if !ok {
		// The write failed: its value was never visible.
		s.hist[key] = h[:n-1]
		if n == 1 {
			delete(s.hist, key)
		}
		return
	}
	s.userBytes += ub
	if n >= 2 {
		h[n-2].to = at
	}
	if len(h) > 64 {
		h = append(h[:0:0], h[len(h)-64:]...)
	}
	s.hist[key] = h
}

// final is the value key holds once every write is acknowledged.
func (s *serveState) final(key int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.hist[key]; ok {
		return h[len(h)-1].val, true
	}
	if key < int64(s.sc.nNotes) {
		return key % 128, true
	}
	return 0, false
}

func (s *serveState) exec(ctx context.Context, o *op) (string, error) {
	w := o.worker
	cl := s.clients[w]
	class := kindClass[o.kind]
	sent := time.Now()
	switch o.kind {
	case kPoint, kText, kPrepText:
		var rows []value.Tuple
		switch o.kind {
		case kPoint:
			r, err := s.point[w].QueryContext(ctx, o.key)
			if err != nil {
				return class, s.errorf("point probe %d: %w", o.key, err)
			}
			rows = r.Rows
		case kText:
			r, err := cl.QueryContext(ctx, fmt.Sprintf(pointText, o.key))
			if err != nil {
				return class, s.errorf("text probe %d: %w", o.key, err)
			}
			rows = r.Rows
		default:
			r, err := cl.Prepare(fmt.Sprintf(pointText, o.key)).QueryContext(ctx)
			if err != nil {
				return class, s.errorf("prepared text probe %d: %w", o.key, err)
			}
			rows = r.Rows
		}
		if len(rows) != 1 || !s.visible(o.key, rows[0][0].AsInt(), sent, time.Now()) {
			return class, s.errorf("point probe %d returned %v", o.key, rows)
		}
	case kRange:
		r, err := s.rng[w].QueryContext(ctx, o.key, o.key+10)
		if err != nil {
			return class, s.errorf("range probe %d: %w", o.key, err)
		}
		done := time.Now()
		if len(r.Rows) != 10 {
			return class, s.errorf("range probe %d returned %d rows", o.key, len(r.Rows))
		}
		for _, row := range r.Rows {
			name, pitch := row[0].AsInt(), row[1].AsInt()
			if name < o.key || name >= o.key+10 || !s.visible(name, pitch, sent, done) {
				return class, s.errorf("range probe %d returned row %v", o.key, row)
			}
		}
	case kIncipit:
		q := s.queries[o.arg]
		r, err := cl.QueryContext(ctx, fmt.Sprintf(incipitFmt, q.literal()))
		if err != nil {
			return class, s.errorf("incipit search: %w", err)
		}
		got := make([]int64, len(r.Rows))
		for i, row := range r.Rows {
			got[i] = row[0].AsInt()
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		s.mu.Lock()
		first, seen := s.incipit[int(o.arg)]
		if !seen {
			s.incipit[int(o.arg)] = got
		}
		s.mu.Unlock()
		if seen && !equalInts(first, got) || !containsInt(got, int64(q.source)) {
			return class, s.errorf("incipit search %q returned %v", q.literal(), got)
		}
	case kAppend:
		s.begin(o.key, o.arg, sent)
		_, err := s.app[w].ExecContext(ctx, o.key, o.arg, o.key%int64(s.sc.nScores))
		s.ack(o.key, time.Now(), err == nil, userBytes(value.Int(o.key), value.Int(o.arg), value.Int(o.key%int64(s.sc.nScores))))
		if err != nil {
			return class, s.errorf("append %d: %w", o.key, err)
		}
		s.mu.Lock()
		s.appended = append(s.appended, o.key)
		s.mu.Unlock()
	case kReplace:
		s.begin(o.key, o.arg, sent)
		res, err := s.rep[w].ExecContext(ctx, o.key, o.arg)
		ok := err == nil && res.Affected == 1
		s.ack(o.key, time.Now(), ok, userBytes(value.Int(o.arg)))
		if !ok {
			return class, s.errorf("replace %d: affected %v, %v", o.key, res, err)
		}
	}
	return class, nil
}

// serveGen generates serve-mix ops from one seeded stream.  Reads go
// to the first connection and writes to the second, so a read never
// waits behind another client's fsync and each key's writes run in
// order.
type serveGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	notes   int64
	queries int
	next    int64   // next appended name
	recent  []int64 // recently appended names
}

func newServeGen(seed int64, notes, queries int) *serveGen {
	rng := rand.New(rand.NewSource(seed))
	return &serveGen{
		rng: rng, zipf: rand.NewZipf(rng, 1.1, 4, uint64(notes-1)),
		notes: int64(notes), queries: queries, next: int64(notes),
	}
}

func (g *serveGen) op(int64) op {
	r := g.rng.Intn(1000)
	k := 0
	for r >= serveMixWeights[k] {
		r -= serveMixWeights[k]
		k++
	}
	o := op{kind: k}
	switch k {
	case kPoint, kText, kPrepText:
		o.key = g.rng.Int63n(g.notes)
	case kRange:
		o.key = g.rng.Int63n(g.notes - 10)
	case kIncipit:
		o.arg = int64(g.rng.Intn(g.queries))
	case kAppend:
		o.key, o.arg = g.next, g.next%128
		g.next++
		g.recent = append(g.recent, o.key)
		if len(g.recent) > 256 {
			g.recent = g.recent[1:]
		}
	case kReplace:
		// Uneven and recency-favoured: half the replaces revise a
		// recent append, the rest hit a Zipf-hot set of stored notes.
		if len(g.recent) > 0 && g.rng.Intn(2) == 0 {
			back := min(len(g.recent)-1, int(g.rng.ExpFloat64()*16))
			o.key = g.recent[len(g.recent)-1-back]
		} else {
			o.key = int64(g.zipf.Uint64()*7919) % g.notes
		}
		o.arg = g.rng.Int63n(128)
	}
	if kindClass[k] == "write" {
		o.worker = 1
	}
	return o
}

type serveSetup struct {
	h      *host
	sc     *scores
	works  []work
	stream []byte
}

// setupServed builds the served corpus: the score/note corpus and a
// small catalogue loaded through the stream loader.
func setupServed(cfg *config, ckptBytes int64) (*serveSetup, float64, error) {
	ctx := context.Background()
	return repeatSetup(cfg, setupRepeats, func(dir string) (*serveSetup, error) {
		h, err := openHost(dir, ckptBytes)
		if err != nil {
			return nil, err
		}
		sc, err := loadScores(ctx, h.m, cfg.sc.notes, cfg.sc.scores)
		if err != nil {
			h.close()
			return nil, err
		}
		stream, works, err := catalogueStream(cfg.seed, 1, cfg.sc.works)
		if err != nil {
			h.close()
			return nil, err
		}
		if err := loadCatalogue(h.ix, stream); err != nil {
			h.close()
			return nil, err
		}
		// A loaded store is checkpointed, so timed phases start from an
		// empty log and their checkpoints come from their own writes.
		if err := h.m.Checkpoint(); err != nil {
			h.close()
			return nil, fmt.Errorf("checkpoint after load: %w", err)
		}
		return &serveSetup{h: h, sc: sc, works: works, stream: stream}, nil
	}, func(su *serveSetup) error { return su.h.close() })
}

func runServeMix(cfg *config, o *outcome) error {
	ctx := context.Background()
	su, setupS, err := setupServed(cfg, serveCkptBytes)
	if err != nil {
		return err
	}
	h := su.h
	closed := false
	defer func() {
		if !closed {
			h.close()
		}
	}()

	qrng := rand.New(rand.NewSource(cfg.seed ^ 0x51ED))
	queries := make([]incipitQuery, serveQueries)
	for i := range queries {
		queries[i] = cutQuery(qrng, su.works, 3+i%4)
	}
	s := &serveState{h: h, sc: su.sc, queries: queries,
		hist: map[int64][]version{}, incipit: map[int][]int64{}}
	for w := 0; w < 2; w++ {
		cl, err := h.dial(1)
		if err != nil {
			return err
		}
		defer cl.Close()
		s.clients = append(s.clients, cl)
		s.point = append(s.point, cl.Prepare(pointSrc))
		s.rng = append(s.rng, cl.Prepare(rangeSrc))
		s.app = append(s.app, cl.Prepare(appendSrc))
		s.rep = append(s.rep, cl.Prepare(replaceSrc))
	}
	gen := newServeGen(cfg.seed, su.sc.nNotes, len(queries))
	exec := func(op *op) (string, error) { return s.exec(ctx, op) }

	// Main phase at the nominal rate.  A traced run repeats it traced in
	// place of the closed, capacity and ladder phases, and reports the
	// difference as tracing overhead.
	mainDur := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ph := beginPhase(h.m.Obs())
	st := openLoop(serveNominalRate, mainDur, 2, nil, gen.op, exec)
	ph.end()
	o.attempted += st.attempted
	o.failed += st.failed
	if bad, why := st.growing(serveNominalRate); bad {
		o.invalid = append(o.invalid, why)
	}
	rl, wl := st.warmed("read"), st.warmed("write")
	reads, read2, writes := rl.sorted(), st.warmed("read2").sorted(), wl.sorted()
	rt, wt := tailOf(reads), tailOf(writes)
	openRead50 := quantile(reads, 0.5)
	o.tails["read_tail_ms"], o.tails["write_tail_ms"] = rt, wt
	o.roles["setup_s"] = setupS
	o.roles["mem_peak_mb"] = ph.peakMB
	s.mu.Lock()
	ub := s.userBytes
	s.mu.Unlock()
	o.roles["write_bytes_per_user_byte"] = ph.writeBytesPerUserByte(o, ub)
	o.named["read_p50_ms"] = metric{openRead50, "ms"}
	o.named["read_tail_ms"] = metric{rt.MS, "ms"}
	o.named["write_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
	o.named["write_tail_ms"] = metric{wt.MS, "ms"}
	o.named["incipit_p50_ms"] = metric{quantile(read2, 0.5), "ms"}
	o.named["gen.late_ms"] = metric{st.lateP99(), "ms"}
	o.notes["nominal_rate_ops_s"] = serveNominalRate
	o.notes["checkpoints"] = delta(ph.obs0, ph.obs1, "storage.checkpoint.ns")
	o.notes["flush_policy"] = fmt.Sprintf("SyncCommits+GroupCommit (fsync per group-commit batch), background checkpoint every %d log bytes", serveCkptBytes)

	if cfg.trace {
		ph2 := beginPhase(h.m.Obs())
		s.mu.Lock()
		ub0 := s.userBytes
		s.mu.Unlock()
		st2 := openLoop(serveNominalRate, mainDur, 2, tr, gen.op, exec)
		ph2.end()
		o.attempted += st2.attempted
		o.failed += st2.failed
		s.mu.Lock()
		ub := s.userBytes - ub0
		s.mu.Unlock()
		ph2.commonLayers(o, ub)
		traced := quantile(st2.warmed("read").sorted(), 0.5)
		o.layers["trace.overhead_frac"] = metric{Value: traced/openRead50 - 1, Unit: "frac"}
		o.layers["gen.late_ms"] = metric{Value: st2.lateP99(), Unit: "ms"}
		wp50 := quantile(st2.warmed("write").sorted(), 0.5)
		if err := serveProbes(ctx, s, tr, o, su); err != nil {
			return err
		}
		o.layers["model.bulk_insert_ms"] = metric{Value: median(su.sc.batchMS), Unit: "ms"}
		o.layers["trace.wire_fsync_share.write"] = metric{
			Value: ratio(o.layers["server.rtt_self_write_ms"].Value+o.layers["wal.fsync_ms"].Value, wp50), Unit: "frac"}
		versionLayers(o, h.m.Store)
		if err := tr.write(traceFile(cfg)); err != nil {
			return err
		}
	} else {
		// Closed phase: one client sends the mix's reads back to back.
		// Its latency leaves out the thread wake-ups an idle server pays
		// at the nominal rate, which on a shared host measure the host's
		// scheduler more than this program.  Its own generator draws the
		// reads, so the writes it skips leave the main generator's
		// appended names untouched.
		rgen := newServeGen(cfg.seed^0xC105ED, su.sc.nNotes, len(queries))
		readsOnly := func(i int64) op {
			for {
				if op := rgen.op(i); kindClass[op.kind] != "write" {
					return op
				}
			}
		}
		cr := closedLoop(time.Duration(cfg.seconds*0.15*float64(time.Second)), readsOnly, exec)
		closedReads, closedSearches := cr.warmed("read").sorted(), cr.warmed("read2").sorted()
		o.roles["read_iqm_ms"] = iqm(closedReads)
		o.roles["read2_iqm_ms"] = iqm(closedSearches)
		o.named["closed_read_p50_ms"] = metric{quantile(closedReads, 0.5), "ms"}
		o.named["closed_read_iqm_ms"] = metric{o.roles["read_iqm_ms"], "ms"}
		o.named["closed_incipit_p50_ms"] = metric{quantile(closedSearches, 0.5), "ms"}
		o.named["closed_incipit_iqm_ms"] = metric{o.roles["read2_iqm_ms"], "ms"}

		// Read capacity: the mix's reads on both connections, each kept
		// busy.  The writes stay out: with them, the queue behind each
		// fsync and checkpoint set the result, and it moved by 15-20%
		// between runs.
		conn := 0
		spread := func(i int64) op {
			op := readsOnly(i)
			op.worker, conn = conn, 1-conn
			return op
		}
		cpu0 := cpuSeconds()
		cs := saturate(time.Duration(cfg.seconds*0.15*float64(time.Second)), 2, spread, exec)
		cpu := cpuSeconds() - cpu0
		o.attempted += cs.attempted
		o.failed += cs.failed
		o.roles["ops_s"] = float64(cs.done) / cs.secs
		o.roles["ops_per_cpu_s"] = float64(cs.done) / cpu

		// The ladder: fixed rates above nominal, climbing until one misses
		// the read tail limit or its backlog grows, then bisecting between
		// the last rate that passed and the first that failed.
		best := float64(st.done) / st.secs
		pass, fail := serveNominalRate, 0.0
		rungDur := time.Duration(cfg.seconds * 0.3 / ladderRungs * float64(time.Second))
		var rungs []map[string]any
		for i := 0; i < ladderRungs; i++ {
			rate := pass * 2
			switch {
			case fail > 0:
				rate = math.Sqrt(pass * fail)
			case i > 0:
				rate = pass * ladderStep
			}
			// Each rung starts from a checkpointed store with no checkpoint
			// running, so at a given rate its checkpoints land at the same
			// offsets, whatever log the last rung left.
			if err := h.m.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint before rung: %w", err)
			}
			r0 := snapObs(h.m.Obs())
			rs := openLoop(rate, rungDur, 2, nil, gen.op, exec)
			settleCheckpoints(h.m.Obs(), r0)
			o.attempted += rs.attempted
			o.failed += rs.failed
			t := rs.lat["read"].windowTail()
			bad, _ := rs.growing(rate)
			ok := rs.failed == 0 && !bad && t.MS <= readTailLimitMS
			rungs = append(rungs, map[string]any{"rate": rate, "read_tail_ms": t.MS, "tail_pct": t.Pct, "pass": ok, "achieved": float64(rs.done) / rs.secs, "ckpt": delta(r0, snapObs(h.m.Obs()), "storage.ckpt.auto")})
			if !ok {
				fail = rate
				continue
			}
			pass, best = rate, float64(rs.done)/rs.secs
		}
		// No rung failed: the result is capped by the ladder, not the
		// engine.
		o.notes["ladder_capped"] = fail == 0
		o.named["max_rate_ops_s"] = metric{best, "1/s"}
		o.notes["ladder"] = rungs
	}
	o.named["setup_s"] = metric{setupS, "s"}
	o.named["mem_peak_mb"] = metric{o.roles["mem_peak_mb"], "MB"}
	o.named["write_bytes_per_user_byte"] = metric{o.roles["write_bytes_per_user_byte"], "B/B"}
	if !cfg.trace {
		o.named["read_capacity_ops_s"] = metric{o.roles["ops_s"], "1/s"}
		o.named["read_capacity_ops_per_cpu_s"] = metric{o.roles["ops_per_cpu_s"], "1/cpu-s"}
	}

	// Every incipit result must match the unindexed scan.
	if err := s.checkIncipits(cfg.seed); err != nil {
		o.failf("%v", err)
	}
	// Reopen the store from its directory: every acknowledged write
	// must be readable.
	for _, cl := range s.clients {
		cl.Close()
	}
	closed = true
	if err := h.close(); err != nil {
		return err
	}
	bad, err := s.checkDurable(ctx, h.dir)
	if err != nil {
		return err
	}
	o.attempted++
	if bad != "" {
		o.failf("after reopen: %s", bad)
	}
	return nil
}

// checkIncipits compares a seeded sample of the searches' results with
// biblio.SearchIncipitScan.
func (s *serveState) checkIncipits(seed int64) error {
	var used []int
	for q := range s.incipit {
		used = append(used, q)
	}
	sort.Ints(used)
	rand.New(rand.NewSource(seed)).Shuffle(len(used), func(i, j int) { used[i], used[j] = used[j], used[i] })
	for _, q := range used[:min(len(used), 16)] {
		want, err := scanNumbers(s.h, s.queries[q])
		if err != nil {
			return err
		}
		if !equalInts(want, s.incipit[q]) {
			return fmt.Errorf("incipit %q: indexed %v, scan %v", s.queries[q].literal(), s.incipit[q], want)
		}
	}
	return nil
}

// scanNumbers is the sorted catalogue numbers biblio's unindexed scan
// finds for a query.
func scanNumbers(h *host, q incipitQuery) ([]int64, error) {
	refs, err := h.ix.SearchIncipitScan(q.intervals)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(refs))
	for _, r := range refs {
		v, err := h.m.Model.Attr(r, "number")
		if err != nil {
			return nil, err
		}
		out = append(out, v.AsInt())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// checkDurable reopens the closed store and compares every note with
// the acknowledged writes.
func (s *serveState) checkDurable(ctx context.Context, dir string) (string, error) {
	m, err := mdm.Open(mdm.Options{Dir: dir, SkipCMN: true})
	if err != nil {
		return "", fmt.Errorf("reopen: %w", err)
	}
	defer m.Close()
	res, err := m.NewSession().QueryContext(ctx, `range of n is NOTE retrieve (n.name, n.pitch)`)
	if err != nil {
		return "", fmt.Errorf("read back: %w", err)
	}
	got := make(map[int64]int64, len(res.Rows))
	for _, row := range res.Rows {
		got[row[0].AsInt()] = row[1].AsInt()
	}
	s.mu.Lock()
	appended := append([]int64(nil), s.appended...)
	s.mu.Unlock()
	for _, k := range append(appended, int64(0), int64(s.sc.nNotes-1)) {
		if _, ok := got[k]; !ok {
			return fmt.Sprintf("note %d missing", k), nil
		}
	}
	for k, p := range got {
		want, ok := s.final(k)
		if !ok {
			continue // an append that was never acknowledged
		}
		if p != want {
			return fmt.Sprintf("note %d has pitch %d, want %d", k, p, want), nil
		}
	}
	return "", nil
}

// serveProbes runs the per-layer probes on serve-mix's inputs.
func serveProbes(ctx context.Context, s *serveState, tr *tracer, o *outcome, su *serveSetup) error {
	cl := s.clients[0]
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, probeIters)
	for i := range keys {
		keys[i] = rng.Int63n(int64(su.sc.nNotes))
	}
	point, replace := prepared(ctx, pointSrc), prepared(ctx, replaceSrc)
	// Writes re-store each key's current value, so the expected state
	// does not change.
	wkey := func(i int) int64 { return keys[i] | 1 }
	classes := []classProbe{
		{class: "read",
			wire: func(i int) (int, error) {
				r, err := s.point[0].QueryContext(ctx, keys[i])
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			},
			local: func(sess *mdm.Session, i int) (int, error) {
				r, err := point(sess, keys[i])
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			}},
		{class: "read2",
			wire: func(i int) (int, error) {
				r, err := cl.QueryContext(ctx, fmt.Sprintf(incipitFmt, s.queries[i%len(s.queries)].literal()))
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			},
			local: func(sess *mdm.Session, i int) (int, error) {
				r, err := sess.QueryContext(ctx, fmt.Sprintf(incipitFmt, s.queries[i%len(s.queries)].literal()))
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			}},
		{class: "write",
			wire: func(i int) (int, error) {
				v, _ := s.final(wkey(i))
				r, err := s.rep[1].ExecContext(ctx, wkey(i), v)
				if err != nil {
					return 0, err
				}
				return int(r.Affected), nil
			},
			local: func(sess *mdm.Session, i int) (int, error) {
				v, _ := s.final(wkey(i))
				r, err := replace(sess, wkey(i), v)
				if err != nil {
					return 0, err
				}
				return r.Affected, nil
			}},
	}
	t := probeTarget{
		entity: "NOTE", ordering: "note_in_score",
		queries: s.queries, stream: su.stream,
		texts: []string{pointSrc, fmt.Sprintf(pointText, keys[0]), rangeSrc, appendSrc, replaceSrc, fmt.Sprintf(incipitFmt, s.queries[0].literal())},
	}
	ixName, ok := s.h.m.Model.AttrIndexName("NOTE", "name")
	if !ok {
		return fmt.Errorf("no index on NOTE.name")
	}
	t.index = ixName
	for i, k := range keys {
		if i%2 == 0 {
			t.bounds = append(t.bounds, keyBounds(k, k+1))
		} else {
			t.bounds = append(t.bounds, keyBounds(k, k+10))
		}
		t.anchors = append(t.anchors, su.sc.noteRefs[k])
	}
	return probeLayers(ctx, s.h, tr, o, classes, t)
}

func traceFile(cfg *config) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

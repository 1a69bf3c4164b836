package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/biblio"
	"repro/internal/ingest"
	"repro/internal/mdm"
	"repro/internal/obs"
	"repro/internal/quel"
	"repro/internal/storage"
	"repro/internal/value"
)

// obsSnap is a point-in-time copy of the obs registry by metric name.
type obsSnap map[string]obs.Metric

func snapObs(reg *obs.Registry) obsSnap {
	out := obsSnap{}
	for _, m := range reg.Snapshot() {
		out[m.Name] = m
	}
	return out
}

// delta is how much a counter grew, or how many observations a
// histogram gained, between a and b.
func delta(a, b obsSnap, name string) float64 {
	x, y := a[name], b[name]
	if y.Kind == "histogram" {
		return float64(y.Count) - float64(x.Count)
	}
	return float64(y.Value) - float64(x.Value)
}

// histMean is the mean of the observations a histogram gained between
// a and b, in the histogram's own unit; zero when it gained none.
func histMean(a, b obsSnap, name string) float64 {
	n := float64(b[name].Count) - float64(a[name].Count)
	if n <= 0 {
		return 0
	}
	return (float64(b[name].Sum) - float64(a[name].Sum)) / n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtSnap is a reading of the Go runtime's CPU and allocation totals.
// The runtime updates its CPU classes at the end of each collection,
// so a CPU share over a phase covers the collections inside it.
type rtSnap struct{ gcCPU, userCPU, objs, bytes float64 }

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		}
	}
	return rtSnap{gcCPU: v[0], userCPU: v[1], objs: v[2], bytes: v[3]}
}

// sampler watches the process while a timed phase runs: the peak Go
// heap in use and the server's execution queue depth.
type sampler struct {
	queued *obs.Gauge
	stop   chan struct{}
	wg     sync.WaitGroup

	peakHeap  uint64
	queuedSum float64
	n         int
}

func startSampler(reg *obs.Registry) *sampler {
	s := &sampler{queued: reg.Gauge("server.exec.queued"), stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			s.peakHeap = max(s.peakHeap, heap[0].Value.Uint64())
			s.queuedSum += float64(s.queued.Value())
			s.n++
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap in MB and the
// mean queue depth.
func (s *sampler) finish() (peakMB, meanQueued float64) {
	close(s.stop)
	s.wg.Wait()
	return float64(s.peakHeap) / (1 << 20), ratio(s.queuedSum, float64(s.n))
}

// phase brackets a timed phase: it settles the heap, then records the
// obs registry, the runtime totals, and the sampler, so layer counts
// can be taken as deltas over exactly the timed work.
type phase struct {
	reg    *obs.Registry
	obs0   obsSnap
	rt0    rtSnap
	smp    *sampler
	obs1   obsSnap
	rt1    rtSnap
	peakMB float64
	queued float64
}

func beginPhase(reg *obs.Registry) *phase {
	runtime.GC()
	p := &phase{reg: reg, obs0: snapObs(reg), rt0: readRT()}
	p.smp = startSampler(reg)
	return p
}

// end closes the phase once every background checkpoint it started has
// finished, so its byte counts hold whole checkpoints.
func (p *phase) end() {
	settleCheckpoints(p.reg, p.obs0)
	p.peakMB, p.queued = p.smp.finish()
	p.obs1 = snapObs(p.reg)
	p.rt1 = readRT()
}

// settleCheckpoints waits until every automatic checkpoint started
// since a has finished.
func settleCheckpoints(reg *obs.Registry, a obsSnap) {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		b := snapObs(reg)
		if delta(a, b, "storage.checkpoint.ns") >= delta(a, b, "storage.ckpt.auto") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// commonLayers reports the per-layer counts every workload takes over
// its timed phase.  userBytes is the user data the phase wrote.
func (p *phase) commonLayers(o *outcome, userBytes float64) {
	a, b := p.obs0, p.obs1
	set := func(name string, v float64, unit string) { o.layers[name] = metric{Value: v, Unit: unit} }
	set("server.exec_queued", p.queued, "count")
	set("server.frame_ns", histMean(a, b, "server.frame.ns"), "ns")
	hits, misses := delta(a, b, "mdm.stmt.cache.hits"), delta(a, b, "mdm.stmt.cache.misses")
	set("mdm.stmt_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("mdm.retries", delta(a, b, "mdm.retries"), "count")
	hits, misses = delta(a, b, "quel.plan.cache.hits"), delta(a, b, "quel.plan.cache.misses")
	set("quel.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("storage.ckpt_count", delta(a, b, "storage.checkpoint.ns"), "count")
	set("storage.ckpt_stall_ms", histMean(a, b, "storage.ckpt.stall.ns")/1e6, "ms")
	set("storage.ckpt_bytes", delta(a, b, "storage.ckpt.bytes"), "B")
	set("txn.lock_wait_ms", histMean(a, b, "txn.lock.wait.ns")/1e6, "ms")
	set("txn.deadlocks", delta(a, b, "txn.deadlock"), "count")
	set("wal.fsync_ms", histMean(a, b, "wal.fsync.ns")/1e6, "ms")
	set("wal.txns_per_fsync", ratio(delta(a, b, "wal.group.txns"), delta(a, b, "wal.fsync.ns")), "ratio")
	set("wal.bytes_per_user_byte", ratio(delta(a, b, "wal.append.bytes"), userBytes), "B/B")
	gc := p.rt1.gcCPU - p.rt0.gcCPU
	set("runtime.gc_cpu_frac", ratio(gc, gc+p.rt1.userCPU-p.rt0.userCPU), "frac")
}

// writeBytesPerUserByte is the log plus checkpoint bytes the phase
// wrote per byte of user data; the byte counts go into the notes.
func (p *phase) writeBytesPerUserByte(o *outcome, userBytes float64) float64 {
	wal, ckpt := delta(p.obs0, p.obs1, "wal.append.bytes"), delta(p.obs0, p.obs1, "storage.ckpt.bytes")
	o.notes["wal_bytes"], o.notes["ckpt_bytes"], o.notes["user_bytes"] = wal, ckpt, userBytes
	return ratio(wal+ckpt, userBytes)
}

// userBytes is the encoded size of the values a write supplies.
func userBytes(vals ...value.Value) float64 {
	return float64(len(value.AppendTuple(nil, value.Tuple(vals))))
}

// versionLayers reports the version store's footprint over every
// relation at the end of the run.
func versionLayers(o *outcome, db *storage.DB) {
	var chains, old, hist int
	for _, name := range db.Relations() {
		if r := db.Relation(name); r != nil {
			c, v, h := r.VersionStats()
			chains, old, hist = chains+c, old+v, hist+h
		}
	}
	o.layers["storage.version_chains"] = metric{Value: float64(chains), Unit: "count"}
	o.layers["storage.old_versions"] = metric{Value: float64(old), Unit: "count"}
	o.layers["storage.hist_entries"] = metric{Value: float64(hist), Unit: "count"}
}

// classProbe is one statement class measured layer by layer: the same
// statement run over the wire and in process.
type classProbe struct {
	class string
	wire  func(i int) (rows int, err error)
	local func(sess *mdm.Session, i int) (rows int, err error)
}

// prepared runs src as a statement prepared once in the probe session,
// as the wire side runs its prepared handle, so both paths time the
// same statement and neither parses it per call.
func prepared(ctx context.Context, src string) func(sess *mdm.Session, args ...any) (*quel.Result, error) {
	var st *mdm.Stmt
	return func(sess *mdm.Session, args ...any) (*quel.Result, error) {
		if st == nil {
			var err error
			if st, err = sess.PrepareContext(ctx, src); err != nil {
				return nil, err
			}
		}
		return st.QueryContext(ctx, args...)
	}
}

// probeTarget names what the storage, model and biblio probes read:
// the same relation, index bounds, anchors and queries the workload's
// statements use.
type probeTarget struct {
	entity   string      // entity type the read probes scan
	index    string      // its index the read probes range over
	bounds   [][2][]byte // index key bounds of the read probes
	ordering string
	anchors  []value.Ref // children whose siblings the ordering probes read
	queries  []incipitQuery
	texts    []string // statement texts the workload sends
	stream   []byte   // a record stream the workload loaded
}

// probeIters is how many times each probe runs in a traced run.
const probeIters = 60

// probeLayers times calls into each layer's public functions on the
// workload's own inputs, recording each as a span under one operation
// root, and reports the per-layer metrics.  It runs after the timed
// phase, with no other load.
func probeLayers(ctx context.Context, h *host, tr *tracer, o *outcome, classes []classProbe, t probeTarget) error {
	set := func(name string, v float64, unit string) { o.layers[name] = metric{Value: v, Unit: unit} }
	reg := h.m.Obs()
	sess := h.m.NewSession()
	var op int64

	// Statement classes: client round trip against the in-process
	// statement, rows examined per row returned, allocations per op.
	for _, c := range classes {
		var examined, returned float64
		rt0 := readRT()
		for i := 0; i < probeIters; i++ {
			op++
			root := tr.id()
			start := time.Now()
			if err := tr.timed("client."+c.class, root, op, func() error { _, err := c.wire(i); return err }); err != nil {
				return fmt.Errorf("%s probe over the wire: %w", c.class, err)
			}
			before := snapObs(reg)
			var rows int
			if err := tr.timed("mdm.stmt."+c.class, root, op, func() error { var err error; rows, err = c.local(sess, i); return err }); err != nil {
				return fmt.Errorf("%s probe in process: %w", c.class, err)
			}
			examined += delta(before, snapObs(reg), "quel.scan.rows")
			returned += float64(rows)
			tr.add(root, "probe."+c.class, 0, op, start, time.Now())
		}
		rt1 := readRT()
		// Allocations cover the wire call, the in-process call and the
		// registry reads; each iteration runs the statement twice.
		set("runtime.allocs_per_op."+c.class, (rt1.objs-rt0.objs)/(2*probeIters), "count")
		set("runtime.bytes_per_op."+c.class, (rt1.bytes-rt0.bytes)/(2*probeIters), "B")
		if c.class != "write" {
			set("quel.rows_examined_per_row."+c.class, ratio(examined, max(returned, 1)), "ratio")
		}
	}

	// Layer calls on the same inputs, one operation root each.
	leaf := func(root int64, name string, fn func() error) error {
		return tr.timed(name, root, op, fn)
	}
	for i := 0; i < probeIters; i++ {
		op++
		root := tr.id()
		start := time.Now()
		if err := leaf(root, "quel.parse", func() error {
			_, err := quel.Parse(t.texts[i%len(t.texts)])
			return err
		}); err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		msnap, err := h.m.Model.BeginSnapshot(ctx)
		if err != nil {
			return err
		}
		b := t.bounds[i%len(t.bounds)]
		var ids []storage.RowID
		err = leaf(root, "model.range", func() error {
			return msnap.InstancesRange(t.entity, t.index, b[0], b[1], false, func(value.Ref, value.Tuple) bool { return true })
		})
		if err == nil && len(t.anchors) > 0 {
			a := t.anchors[i%len(t.anchors)]
			err = leaf(root, "model.order_op", func() error {
				if _, err := msnap.SiblingsBefore(t.ordering, a); err != nil {
					return err
				}
				if _, err := msnap.SiblingsAfter(t.ordering, a); err != nil {
					return err
				}
				parent, _, _, err := msnap.ChildPosition(t.ordering, a)
				if err != nil {
					return err
				}
				_, err = msnap.Children(t.ordering, parent)
				return err
			})
		}
		msnap.Close()
		if err != nil {
			return fmt.Errorf("model probe: %w", err)
		}
		ssnap, err := h.m.Store.BeginSnapshot(ctx)
		if err != nil {
			return err
		}
		rel := h.m.Model.InstanceRelation(t.entity)
		err = leaf(root, "storage.snap_index_range", func() error {
			return ssnap.IndexRange(rel, t.index, b[0], b[1], false, func(id storage.RowID, _ value.Tuple) bool {
				ids = append(ids, id)
				return true
			})
		})
		if err == nil && len(ids) > 0 {
			id := ids[i%len(ids)]
			err = leaf(root, "storage.snap_get", func() error {
				if _, ok := ssnap.Get(rel, id); !ok {
					return fmt.Errorf("row %d not visible", id)
				}
				return nil
			})
		}
		if err == nil && i%4 == 0 {
			err = leaf(root, "storage.snap_scan", func() error {
				return ssnap.Scan(rel, func(storage.RowID, value.Tuple) bool { return true })
			})
		}
		ssnap.Close()
		if err != nil {
			return fmt.Errorf("storage probe: %w", err)
		}
		q := t.queries[i%len(t.queries)]
		if err := leaf(root, "biblio.search", func() error {
			_, err := h.ix.SearchIncipit(q.intervals)
			return err
		}); err != nil {
			return fmt.Errorf("incipit search: %w", err)
		}
		tr.add(root, "probe.layers", 0, op, start, time.Now())
	}

	// Decoding: the scanner and converters over the loaded stream.
	op++
	records := 0
	if err := leaf(0, "ingest.decode", func() error {
		sc := ingest.NewScanner(bytes.NewReader(t.stream))
		for {
			rec, err := sc.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := ingest.ConvertRecord(rec); err != nil {
				return fmt.Errorf("decode work %d: %w", rec.Number, err)
			}
			records++
		}
	}); err != nil {
		return err
	}

	// Index builds: the catalogue relations rebuilt bottom-up.
	op++
	if err := leaf(0, "storage.build_indexes", func() error {
		for _, rel := range h.ix.BulkRelations() {
			if err := h.m.Store.DeferIndexes(rel); err != nil {
				return err
			}
			if err := h.m.Store.BuildIndexes(rel); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Every metric below is a median of span self times.
	self := tr.selfMS()
	med := func(name string) float64 { return median(self[name]) }
	for _, c := range classes {
		set("quel.stmt_ms."+c.class, med("mdm.stmt."+c.class), "ms")
	}
	set("server.rtt_self_ms", med("client.read")-med("mdm.stmt.read"), "ms")
	set("server.rtt_self_write_ms", med("client.write")-med("mdm.stmt.write"), "ms")
	set("trace.inproc_share.read", ratio(med("mdm.stmt.read"), med("client.read")), "frac")
	set("quel.parse_ms", med("quel.parse"), "ms")
	set("model.range_ms", med("model.range"), "ms")
	set("model.order_op_ms", med("model.order_op"), "ms")
	set("storage.snap_index_range_ms", med("storage.snap_index_range"), "ms")
	set("storage.snap_get_us", med("storage.snap_get")*1e3, "us")
	set("storage.snap_scan_ms", med("storage.snap_scan"), "ms")
	set("biblio.search_ms", med("biblio.search"), "ms")
	set("biblio.candidates_per_match", candidatesPerMatch(h, t.queries), "ratio")
	set("ingest.decode_ms", ratio(med("ingest.decode"), float64(records)), "ms")
	set("storage.build_indexes_ms", med("storage.build_indexes"), "ms")
	return nil
}

// candidatesPerMatch is the gram-index candidates an incipit search
// verifies per entry it returns: the posting count of each query's most
// selective gram (the window biblio probes) over the matches.
func candidatesPerMatch(h *host, queries []incipitQuery) float64 {
	ixName, ok := h.m.Model.AttrIndexName("INCIPIT_GRAM", "gram")
	if !ok {
		return 0
	}
	var cands, matches float64
	for _, q := range queries {
		best := -1
		for i := 0; i+biblio.GramN <= len(q.intervals); i++ {
			lo := value.AppendKey(nil, value.Str(gramKey(q.intervals[i:i+biblio.GramN])))
			hi := append(append([]byte(nil), lo...), 0xFF)
			if n := h.m.Model.InstancesRangeCount("INCIPIT_GRAM", ixName, lo, hi); best < 0 || n < best {
				best = n
			}
		}
		refs, err := h.ix.SearchIncipit(q.intervals)
		if err != nil || best < 0 {
			continue
		}
		cands += float64(best)
		matches += float64(len(refs))
	}
	return ratio(cands, matches)
}

// gramKey is biblio's posting key for an interval window, "7,-4,-1".
func gramKey(iv []int) string {
	var b bytes.Buffer
	for i, d := range iv {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, d)
	}
	return b.String()
}

// keyBounds is the index key range [lo, hi) of integer column values,
// matching the planner's encoding of `attr >= lo and attr < hi`.
func keyBounds(lo, hi int64) [2][]byte {
	return [2][]byte{value.AppendKey(nil, value.Int(lo)), value.AppendKey(nil, value.Int(hi))}
}

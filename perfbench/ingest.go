package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/biblio"
	"repro/internal/client"
	"repro/internal/ingest"
	"repro/internal/mdm"
	"repro/internal/value"
)

// ingestCkptBytes triggers background checkpoints during the load.
const ingestCkptBytes = 4 << 20

// ingestWriteRate is the rate at which single works are catalogued
// while the catalogue is searched, in works per second.
const ingestWriteRate = 20.0

// ingestBatch is the loader's batch size, cmd/mdmload's default.
const ingestBatch = 256

type ingestSetup struct {
	h      *host
	cat    value.Ref
	stream []byte
	works  []work
	notes  int
}

// ingestRounds is how many times a run sets up an empty store and
// loads the stream into it.  Set-up time and load rate are the medians
// over the rounds; the last round's store serves the searches.
const ingestRounds = 5

func setupIngest(cfg *config, dir string) (*ingestSetup, error) {
	h, err := openHost(dir, ingestCkptBytes)
	if err != nil {
		return nil, err
	}
	stream, works, err := catalogueStream(cfg.seed, 1, cfg.sc.ingestWorks)
	if err != nil {
		h.close()
		return nil, err
	}
	cat, err := h.ix.NewCatalog("Synthetic Werke Verzeichnis", "SWV", "perfbench")
	if err != nil {
		h.close()
		return nil, err
	}
	notes := 0
	for _, w := range works {
		notes += len(w.pitches)
	}
	return &ingestSetup{h: h, cat: cat, stream: stream, works: works, notes: notes}, nil
}

// loadRound is one load of the stream into an empty store.
type loadRound struct {
	st        ingest.Stats
	secs, cpu float64
	ph        *phase
	afterLoad obsSnap
}

// loadStream runs the stream through the loader with deferred index
// builds, then checkpoints, and checks what was loaded.
func loadStream(su *ingestSetup, o *outcome) (*loadRound, error) {
	h, n := su.h, len(su.works)
	r := &loadRound{ph: beginPhase(h.m.Obs())}
	start, cpu0 := time.Now(), cpuSeconds()
	l := ingest.NewLoader(h.ix, ingest.Options{BatchSize: ingestBatch, DeferIndexes: true})
	st, err := l.Load(su.cat, bytes.NewReader(su.stream))
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if err := h.m.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint after ingest: %w", err)
	}
	r.st, r.secs, r.cpu = st, time.Since(start).Seconds(), cpuSeconds()-cpu0
	settleCheckpoints(h.m.Obs(), r.ph.obs0)
	r.afterLoad = snapObs(h.m.Obs())
	o.attempted += int64(n)
	if st.Works != n || st.Notes != su.notes || st.Bytes <= 0 {
		o.failf("ingest loaded %d works, %d notes; want %d, %d", st.Works, st.Notes, n, su.notes)
	}
	if got := h.m.Model.Count("CATALOG_ENTRY"); got != n {
		o.failf("catalogue holds %d entries, want %d", got, n)
	}
	return r, nil
}

func runIngest(cfg *config, o *outcome) error {
	ctx := context.Background()
	n := cfg.sc.ingestWorks
	var su *ingestSetup
	defer func() {
		if su != nil {
			su.h.close()
		}
	}()
	var setups, rates, cpuRates, wbubs []float64
	var ld *loadRound
	for r := 0; r < ingestRounds; r++ {
		if su != nil {
			err := su.h.close()
			os.RemoveAll(su.h.dir)
			su = nil
			if err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		su, err = setupIngest(cfg, filepath.Join(cfg.dir, fmt.Sprintf("store%d", r)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if ld, err = loadStream(su, o); err != nil {
			return err
		}
		rates = append(rates, float64(ld.st.Works)/ld.secs)
		cpuRates = append(cpuRates, float64(ld.st.Works)/ld.cpu)
		wbubs = append(wbubs, ratio(delta(ld.ph.obs0, ld.afterLoad, "wal.append.bytes")+delta(ld.ph.obs0, ld.afterLoad, "storage.ckpt.bytes"), float64(ld.st.Bytes)))
	}
	h, st, ph, afterLoad := su.h, ld.st, ld.ph, ld.afterLoad
	setupS := median(setups)
	payload := float64(st.Bytes)
	wal, ckpt := delta(ph.obs0, afterLoad, "wal.append.bytes"), delta(ph.obs0, afterLoad, "storage.ckpt.bytes")
	o.notes["wal_bytes"], o.notes["ckpt_bytes"] = wal, ckpt
	o.notes["load_works_s"] = rates
	o.notes["load_write_bytes_per_user_byte"] = wbubs
	// Background checkpoints race the load, so a load writes one
	// checkpoint's segments more or fewer now and then; the median over
	// the loads passes over that.
	wbub := median(wbubs)

	cl, err := h.dial(1)
	if err != nil {
		return err
	}
	defer cl.Close()

	// The searches: a closed loop alternating selective patterns (five
	// or more intervals) and broad ones (the gram length), while single
	// works are catalogued open loop beside it.
	qrng := rand.New(rand.NewSource(cfg.seed ^ 0x5EA))
	wrng := rand.New(rand.NewSource(cfg.seed ^ 0xADD))
	nextNum := n + 1
	type checked struct {
		q   incipitQuery
		got []int64
	}
	var sample []checked
	searchDur := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		searchDur /= 2
	}
	i := 0
	search := func(d time.Duration, tr *tracer) (lat map[string]*samples, ws *loopStats) {
		lat = map[string]*samples{"read": {}, "read2": {}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = openLoop(ingestWriteRate, d, 1, nil,
				func(int64) op {
					num := nextNum
					nextNum++
					return op{key: int64(num), arg: wrng.Int63()}
				},
				func(w *op) (string, error) {
					_, err := h.ix.AddEntries(su.cat, []biblio.Entry{biblio.SyntheticEntry(w.arg, int(w.key))})
					return "write", err
				})
		}()
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			class, span := "read", 5+qrng.Intn(3)
			if i%2 == 1 {
				class, span = "read2", biblio.GramN
			}
			q := cutQuery(qrng, su.works, span)
			i++
			o.attempted++
			root := tr.id()
			t0 := time.Now()
			res, err := cl.QueryContext(context.Background(), fmt.Sprintf(incipitFmt, q.literal()))
			t1 := time.Now()
			if tr != nil {
				tr.add(tr.id(), "client.call", root, int64(i), t0, t1)
				tr.add(root, "op."+class, 0, int64(i), t0, t1)
			}
			if err != nil {
				o.failf("incipit search %q: %v", q.literal(), err)
				continue
			}
			var got []int64
			for _, row := range res.Rows {
				if num := row[0].AsInt(); num <= int64(n) {
					got = append(got, num)
				}
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !containsInt(got, int64(q.source)) {
				o.failf("incipit search %q missed work %d", q.literal(), q.source)
				continue
			}
			if i%16 == 1 && len(sample) < 4 {
				sample = append(sample, checked{q, got})
			}
			lat[class].add(t1, t1.Sub(t0))
		}
		wg.Wait()
		o.attempted += ws.attempted
		o.failed += ws.failed
		return lat, ws
	}
	lat, ws := search(searchDur, nil)
	ph.end()
	if bad, why := ws.growing(ingestWriteRate); bad {
		o.invalid = append(o.invalid, "writer: "+why)
	}
	sel, broad, writes := lat["read"].sorted(), lat["read2"].sorted(), ws.lat["write"].sorted()
	wt := tailOf(writes)
	o.tails["catalogue_write_tail_ms"] = wt
	o.roles["setup_s"] = setupS
	o.roles["mem_peak_mb"] = ph.peakMB
	o.roles["read_iqm_ms"] = iqm(sel)
	o.roles["read2_iqm_ms"] = iqm(broad)
	o.roles["ops_s"] = median(rates)
	o.roles["ops_per_cpu_s"] = median(cpuRates)
	o.roles["write_bytes_per_user_byte"] = wbub
	all := append(append([]float64(nil), sel...), broad...)
	sort.Float64s(all)
	it := tailOf(all)
	o.tails["incipit_tail_ms"] = it
	o.named["setup_s"] = metric{setupS, "s"}
	o.named["mem_peak_mb"] = metric{ph.peakMB, "MB"}
	o.named["ingest_works_s"] = metric{o.roles["ops_s"], "1/s"}
	o.named["ingest_works_per_cpu_s"] = metric{o.roles["ops_per_cpu_s"], "1/cpu-s"}
	o.named["write_bytes_per_user_byte"] = metric{wbub, "B/B"}
	o.named["incipit_p50_ms"] = metric{quantile(all, 0.5), "ms"}
	o.named["incipit_tail_ms"] = metric{it.MS, "ms"}
	o.named["selective_incipit_p50_ms"] = metric{quantile(sel, 0.5), "ms"}
	o.named["selective_incipit_iqm_ms"] = metric{o.roles["read_iqm_ms"], "ms"}
	o.named["broad_incipit_p50_ms"] = metric{quantile(broad, 0.5), "ms"}
	o.named["broad_incipit_iqm_ms"] = metric{o.roles["read2_iqm_ms"], "ms"}
	o.named["catalogue_write_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
	o.named["catalogue_write_tail_ms"] = metric{wt.MS, "ms"}
	o.named["gen.late_ms"] = metric{ws.lateP99(), "ms"}
	o.notes["checkpoints_during_load"] = delta(ph.obs0, afterLoad, "storage.checkpoint.ns")
	o.notes["flush_policy"] = fmt.Sprintf("WAL on, SyncCommits+GroupCommit, batches of %d, deferred index build, background checkpoint every %d log bytes, checkpoint after the load", ingestBatch, ingestCkptBytes)
	o.notes["works"] = n
	o.notes["payload_bytes"] = st.Bytes

	if cfg.trace {
		ph2 := beginPhase(h.m.Obs())
		lat2, ws2 := search(searchDur, tr)
		ph2.end()
		ph.commonLayers(o, payload)
		o.layers["wal.bytes_per_user_byte"] = metric{ratio(delta(ph.obs0, afterLoad, "wal.append.bytes"), payload), "B/B"}
		o.layers["model.bulk_insert_ms"] = metric{histMean(ph.obs0, afterLoad, "ingest.batch.ns") / 1e6, "ms"}
		o.layers["trace.overhead_frac"] = metric{quantile(lat2["read"].sorted(), 0.5)/quantile(sel, 0.5) - 1, "frac"}
		o.layers["gen.late_ms"] = metric{ws2.lateP99(), "ms"}
		wp50 := quantile(ws2.lat["write"].sorted(), 0.5)
		if err := ingestProbes(ctx, h, su, cl, tr, o, cfg.seed); err != nil {
			return err
		}
		o.layers["trace.wire_fsync_share.write"] = metric{
			ratio(o.layers["server.rtt_self_write_ms"].Value+o.layers["wal.fsync_ms"].Value, wp50), "frac"}
		versionLayers(o, h.m.Store)
		if err := tr.write(traceFile(cfg)); err != nil {
			return err
		}
	}

	// A sample of the searches must equal the unindexed scan.
	for _, c := range sample {
		want, err := scanNumbers(h, c.q)
		if err != nil {
			return err
		}
		var base []int64
		for _, w := range want {
			if w <= int64(n) {
				base = append(base, w)
			}
		}
		o.attempted++
		if !equalInts(base, c.got) {
			o.failf("incipit %q: indexed %v, scan %v", c.q.literal(), c.got, base)
		}
	}
	return nil
}

// ingestProbes runs the per-layer probes on catalog-ingest's inputs:
// selective searches as the read class, broad ones as read2, and a
// bare catalogue-entry append as the write class.
func ingestProbes(ctx context.Context, h *host, su *ingestSetup, cl *client.Client, tr *tracer, o *outcome, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x9E0))
	sel := make([]incipitQuery, probeIters)
	broad := make([]incipitQuery, probeIters)
	for i := range sel {
		sel[i] = cutQuery(rng, su.works, 5+i%3)
		broad[i] = cutQuery(rng, su.works, biblio.GramN)
	}
	search := func(qs []incipitQuery) (func(int) (int, error), func(*mdm.Session, int) (int, error)) {
		return func(i int) (int, error) {
				r, err := cl.QueryContext(ctx, fmt.Sprintf(incipitFmt, qs[i].literal()))
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			}, func(sess *mdm.Session, i int) (int, error) {
				r, err := sess.QueryContext(ctx, fmt.Sprintf(incipitFmt, qs[i].literal()))
				if err != nil {
					return 0, err
				}
				return len(r.Rows), nil
			}
	}
	const stubFmt = `append to CATALOG_ENTRY (number = %d, title = "stub")`
	selWire, selLocal := search(sel)
	broadWire, broadLocal := search(broad)
	classes := []classProbe{
		{class: "read", wire: selWire, local: selLocal},
		{class: "read2", wire: broadWire, local: broadLocal},
		{class: "write",
			wire: func(i int) (int, error) {
				r, err := cl.ExecContext(ctx, fmt.Sprintf(stubFmt, 10_000_000+i))
				if err != nil {
					return 0, err
				}
				return int(r.Affected), nil
			},
			local: func(sess *mdm.Session, i int) (int, error) {
				r, err := sess.QueryContext(ctx, fmt.Sprintf(stubFmt, 20_000_000+i))
				if err != nil {
					return 0, err
				}
				return r.Affected, nil
			}},
	}
	ixName, ok := h.m.Model.AttrIndexName("INCIPIT_GRAM", "gram")
	if !ok {
		return fmt.Errorf("no gram index")
	}
	entries, err := h.m.Model.Children("entry_in_catalog", su.cat)
	if err != nil {
		return err
	}
	t := probeTarget{entity: "INCIPIT_GRAM", index: ixName, ordering: "entry_in_catalog", queries: sel, stream: su.stream}
	for i, q := range sel {
		lo := value.AppendKey(nil, value.Str(gramKey(q.intervals[:biblio.GramN])))
		t.bounds = append(t.bounds, [2][]byte{lo, append(append([]byte(nil), lo...), 0xFF)})
		t.anchors = append(t.anchors, entries[rng.Intn(len(entries))])
		t.texts = append(t.texts, fmt.Sprintf(incipitFmt, q.literal()), fmt.Sprintf(incipitFmt, broad[i].literal()))
	}
	return probeLayers(ctx, h, tr, o, classes, t)
}

package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// op is one generated request.  The workload fills the fields its
// executor reads; the loop fills the release time.
type op struct {
	id       int64
	kind     int
	key      int64
	arg      int64
	worker   int
	released time.Time
}

// loopStats is what one open-loop phase measured.
type loopStats struct {
	lat       map[string]*samples // by class, from each op's release
	attempted int64
	failed    int64
	done      int64
	lateMS    []float64 // how late the generator dispatched each op
	backlog   []int     // queued ops, sampled every 10ms
	start     time.Time
	dur       time.Duration
	secs      float64
}

// warmed returns a class's latencies without those of the phase's
// first twelfth (one second of a 12 s phase): connections, caches and
// the heap settle there.
func (s *loopStats) warmed(class string) *samples {
	return s.lat[class].after(s.start.Add(s.dur / 12))
}

// growing reports whether the phase fell behind: the generator ran late
// or the backlog stayed up through the phase's final quarter, so the
// run measured a queue, not the system.  Both are judged by their
// minimum over that quarter, which a passing stall does not lift.
func (s *loopStats) growing(rate float64) (bool, string) {
	q := len(s.backlog) * 3 / 4
	if q < len(s.backlog) {
		low := s.backlog[q]
		for _, b := range s.backlog[q:] {
			low = min(low, b)
		}
		if limit := max(8, int(rate*0.01)); low > limit {
			return true, fmt.Sprintf("backlog stayed above %d (min %d) in the last quarter at %.0f ops/s", limit, low, rate)
		}
	}
	q = len(s.lateMS) * 3 / 4
	if q < len(s.lateMS) {
		low := s.lateMS[q]
		for _, l := range s.lateMS[q:] {
			low = min(low, l)
		}
		if low > 5 {
			return true, fmt.Sprintf("generator ran at least %.1fms late through the last quarter at %.0f ops/s", low, rate)
		}
	}
	return false, ""
}

// lateP99 is the 99th percentile of generator lateness in ms.
func (s *loopStats) lateP99() float64 {
	l := append([]float64(nil), s.lateMS...)
	sort.Float64s(l)
	return quantile(l, 0.99)
}

// openLoop sends ops on a fixed schedule regardless of completions: op
// i is due at start + i/rate and joins its worker's queue; each worker
// owns one connection and runs its queue in order.  next generates op
// i (seeded, so a seed fixes the op sequence); exec runs an op and
// returns its class.
//
// Latency runs from the op's release: its due time, or the moment the
// generator's timer fired when that was later.  Go's timers fire up to
// a millisecond late, which would otherwise swamp sub-millisecond
// statements; that lateness is reported on its own (lateMS) and a run
// whose generator falls behind is invalid.  Time an op spends queued
// behind a stall still counts.
//
// At rate 0 it runs as saturate does.
func openLoop(rate float64, dur time.Duration, workers int, tr *tracer,
	next func(i int64) op, exec func(o *op) (class string, err error)) *loopStats {
	n := int64(rate * dur.Seconds())
	st := &loopStats{lat: map[string]*samples{}, attempted: n, dur: dur}
	for _, c := range []string{"read", "read2", "write"} {
		st.lat[c] = &samples{}
	}
	// At a rate, each queue can hold the whole phase, so the generator
	// never blocks on a slow worker and lateness measures only itself.
	queues := make([]chan op, workers)
	for w := range queues {
		if rate > 0 {
			queues[w] = make(chan op, n)
		} else {
			queues[w] = make(chan op, saturateDepth)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(q chan op) {
			defer wg.Done()
			for o := range q {
				root := tr.id()
				sent := time.Now()
				class, err := exec(&o)
				done := time.Now()
				if tr != nil {
					tr.add(tr.id(), "client.call", root, o.id, sent, done)
					tr.add(root, "op."+class, 0, o.id, o.released, done)
				}
				mu.Lock()
				st.done++
				if err != nil {
					st.failed++
				}
				mu.Unlock()
				if err == nil {
					st.lat[class].add(done, done.Sub(o.released))
				}
			}
		}(queues[w])
	}
	stopSampling := make(chan struct{})
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
			}
			b := 0
			for _, q := range queues {
				b += len(q)
			}
			st.backlog = append(st.backlog, b)
		}
	}()

	start := time.Now()
	st.start = start
	if rate <= 0 {
		end := start.Add(dur)
		for i := int64(0); time.Now().Before(end); i++ {
			o := next(i)
			o.id = i
			o.released = time.Now()
			queues[o.worker] <- o
			st.attempted++
		}
	}
	st.lateMS = make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		o := next(i)
		o.id = i
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		o.released = time.Now()
		st.lateMS = append(st.lateMS, float64(o.released.Sub(due).Nanoseconds())/1e6)
		queues[o.worker] <- o
	}
	close(stopSampling)
	swg.Wait()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	st.secs = time.Since(start).Seconds()
	return st
}

// closedLoop runs ops one after another on the calling goroutine for
// dur: each op is sent when the previous one has answered, as one
// client waiting for each reply does.  Latency runs from the send.
func closedLoop(dur time.Duration, next func(i int64) op, exec func(o *op) (class string, err error)) *loopStats {
	st := &loopStats{lat: map[string]*samples{}, dur: dur}
	for _, c := range []string{"read", "read2", "write"} {
		st.lat[c] = &samples{}
	}
	st.start = time.Now()
	end := st.start.Add(dur)
	for i := int64(0); time.Now().Before(end); i++ {
		o := next(i)
		o.id = i
		o.released = time.Now()
		class, err := exec(&o)
		done := time.Now()
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.done++
		st.lat[class].add(done, done.Sub(o.released))
	}
	st.secs = time.Since(st.start).Seconds()
	return st
}

// saturate keeps every worker busy for dur: ops are generated as fast
// as the workers take them, with a few queued per worker so that no
// worker waits on the generator.  Latency runs from the moment an op
// was queued.
func saturate(dur time.Duration, workers int, next func(i int64) op, exec func(o *op) (class string, err error)) *loopStats {
	return openLoop(0, dur, workers, nil, next, exec)
}

// saturateDepth is how many ops saturate queues per worker.
const saturateDepth = 16

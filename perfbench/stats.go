package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples collects latencies in milliseconds with the time each
// completed.  It is safe for concurrent use.
type samples struct {
	mu sync.Mutex
	at []time.Time
	ms []float64
}

func (s *samples) add(done time.Time, d time.Duration) {
	s.mu.Lock()
	s.at = append(s.at, done)
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

// after returns the samples that completed at or after t.
func (s *samples) after(t time.Time) *samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &samples{}
	for i, at := range s.at {
		if !at.Before(t) {
			out.at = append(out.at, at)
			out.ms = append(out.ms, s.ms[i])
		}
	}
	return out
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// Tails over windows, which the serve-mix ladder holds to its limit: a
// rung's samples are split, in completion order, into up to maxWindows
// runs of at least minWindow samples each (enough for a 95th percentile
// with ten beyond it).  Six windows keep each one long enough to hold
// the collections a busy heap runs every second or two, while a rung's
// checkpoint can spoil at most two of them, which the median passes
// over.
const (
	minWindow  = 200
	maxWindows = 6
)

// windowTail returns the median over the windows of each window's
// tail, all taken at the highest percentile that leaves ten samples
// beyond it in a window.  A stall that lands in one window then moves
// the result by one window's worth, not the whole rung's.  With fewer
// than three windows' worth of samples it is the tail of all samples.
func (s *samples) windowTail() tail {
	s.mu.Lock()
	idx := make([]int, len(s.ms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.at[idx[a]].Before(s.at[idx[b]]) })
	ordered := make([]float64, len(idx))
	for i, j := range idx {
		ordered[i] = s.ms[j]
	}
	s.mu.Unlock()
	n := len(ordered)
	k := min(maxWindows, n/minWindow)
	if k < 3 {
		sort.Float64s(ordered)
		return tailOf(ordered)
	}
	size := n / k
	pct := 0.0
	for _, p := range tailPercentiles {
		if float64(size)*(1-p/100) >= 10 {
			pct = p
			break
		}
	}
	vals := make([]float64, k)
	for w := range vals {
		win := ordered[w*size : (w+1)*size]
		sort.Float64s(win)
		vals[w] = quantile(win, pct/100)
	}
	return tail{MS: median(vals), Pct: pct, N: n, Windows: k}
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// iqm is the interquartile mean of sorted values: the mean of their
// middle half.  Where a run's latencies fall in modes (statements that
// overlapped a garbage collection and those that did not, or searches
// of different selectivity), the median and the other quantiles jump
// from one mode to the next as the modes' shares shift between runs;
// the middle half's mean moves smoothly with the shares, and the
// rarest, slowest statements do not enter it.
func iqm(sorted []float64) float64 {
	n := len(sorted)
	lo, hi := n/4, n-n/4
	if hi <= lo {
		return quantile(sorted, 0.5)
	}
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// cpuSeconds is the CPU time this process has used, user and system.
// The kernel leaves out the time a hypervisor gave the host's CPUs to
// other guests (steal), so a rate over CPU time does not move with the
// host's load the way a rate over wall time does.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tail is the highest percentile with at least ten samples beyond it:
// the latency, the percentile it was taken at, and the sample count.
type tail struct {
	MS      float64 `json:"ms"`
	Pct     float64 `json:"pct"`
	N       int     `json:"n"`
	Windows int     `json:"windows,omitempty"`
}

func tailOf(sorted []float64) tail {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return tail{MS: quantile(sorted, p/100), Pct: p, N: n}
		}
	}
	// Fewer than 20 samples: no percentile has ten beyond it; report
	// the maximum and say so with percentile 100.
	if n == 0 {
		return tail{MS: math.NaN(), Pct: 100}
	}
	return tail{MS: sorted[n-1], Pct: 100, N: n}
}

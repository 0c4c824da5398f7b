package main

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples by linear
// interpolation between closest ranks, the estimator Python's
// statistics.quantiles(method="inclusive") and numpy use. It sorts
// samples in place and returns NaN for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	pos := p * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return samples[lo] + (samples[hi]-samples[lo])*frac
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// subWindow is the length of the slices a measurement window is cut
// into. End-to-end metrics are medians over the slices: a neighbour's
// burst that takes the CPUs away for a moment moves one slice, not the
// result.
const subWindow = time.Second

// sample is one completed operation.
type sample struct {
	at    int64 // completion, ns since the window's start
	lat   int64 // ns
	bytes int64 // verified bytes it delivered
}

// meter records the operations of one measurement window: every
// completed operation's time, latency and bytes (one slice per worker,
// so the hot path takes no shared lock), and the process CPU time at
// each sub-window boundary.
type meter struct {
	start   time.Time
	end     time.Time
	samples [][]sample
	attempt atomic.Int64
	failed  atomic.Int64

	stop   chan struct{}
	exited chan struct{}
	ticks  []tick // sub-window boundaries after start
}

type tick struct {
	at  int64 // ns since start
	cpu time.Duration
}

func newMeter(workers int) *meter { return &meter{samples: make([][]sample, workers)} }

// begin starts a window of length d and returns its deadline.
func (m *meter) begin(d time.Duration) (deadline time.Time) {
	m.stop, m.exited = make(chan struct{}), make(chan struct{})
	cpu0 := processCPU()
	m.start = time.Now()
	m.ticks = []tick{{0, cpu0}}
	go func() {
		defer close(m.exited)
		t := time.NewTicker(subWindow)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-t.C:
				m.ticks = append(m.ticks, tick{int64(now.Sub(m.start)), processCPU()})
			}
		}
	}()
	return m.start.Add(d)
}

// finish closes the window.
func (m *meter) finish() {
	m.end = time.Now()
	close(m.stop)
	<-m.exited
	if len(m.ticks) < 2 { // shorter than one sub-window: use the whole window
		m.ticks = append(m.ticks, tick{int64(m.end.Sub(m.start)), processCPU()})
	}
}

// done records one completed operation that delivered n verified bytes
// and took lat. Only worker w may call done with that index.
func (m *meter) done(w int, n int64, lat time.Duration) {
	m.samples[w] = append(m.samples[w], sample{at: int64(time.Since(m.start)), lat: int64(lat), bytes: n})
}

func (m *meter) elapsed() time.Duration { return m.end.Sub(m.start) }

func (m *meter) totalOps() int64 {
	var n int64
	for _, s := range m.samples {
		n += int64(len(s))
	}
	return n
}

func (m *meter) totalBytes() int64 {
	var n int64
	for _, ss := range m.samples {
		for _, s := range ss {
			n += s.bytes
		}
	}
	return n
}

// slice is one sub-window's figures.
type slice struct {
	opsPerSec, bytesPerSec, cpuPerOpNs float64
	lat                                []float64 // µs
}

// slices cuts the window at the recorded sub-window boundaries; the
// tail after the last boundary is left out. A slice with no completed
// operation is skipped.
func (m *meter) slices() []slice {
	var all []sample
	for _, s := range m.samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var out []slice
	i := 0
	for k := 1; k < len(m.ticks); k++ {
		lo, hi := m.ticks[k-1], m.ticks[k]
		var sl slice
		var bytes int64
		for ; i < len(all) && all[i].at < hi.at; i++ {
			if all[i].at >= lo.at {
				sl.lat = append(sl.lat, float64(all[i].lat)/1e3)
				bytes += all[i].bytes
			}
		}
		n := len(sl.lat)
		if n == 0 {
			continue
		}
		secs := float64(hi.at-lo.at) / 1e9
		sl.opsPerSec = float64(n) / secs
		sl.bytesPerSec = float64(bytes) / secs
		sl.cpuPerOpNs = float64(hi.cpu-lo.cpu) / float64(n)
		out = append(out, sl)
	}
	return out
}

// medianOver returns the median over slices of f.
func medianOver(sl []slice, f func(slice) float64) float64 {
	v := make([]float64, len(sl))
	for i, s := range sl {
		v[i] = f(s)
	}
	return median(v)
}

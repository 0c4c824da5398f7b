package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	// Reference values: Python's statistics.quantiles(method="inclusive")
	// and numpy.percentile agree on these.
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 15}, {0.25, 20}, {0.4, 29}, {0.5, 35}, {0.75, 40}, {0.99, 49.6}, {1, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestMeterSlicesAreCutAtTicks(t *testing.T) {
	m := newMeter(2)
	m.start = time.Now()
	m.samples[0] = []sample{{at: 100, lat: 3000, bytes: 10}, {at: 1_500, lat: 1000, bytes: 30}}
	m.samples[1] = []sample{{at: 200, lat: 1000, bytes: 20}, {at: 2_500, lat: 9000, bytes: 1}}
	m.ticks = []tick{{0, 0}, {1_000, 4_000}, {2_000, 5_000}} // the sample at 2500 is in the tail
	sl := m.slices()
	if len(sl) != 2 {
		t.Fatalf("%d slices, want 2", len(sl))
	}
	want := []slice{
		{opsPerSec: 2e6, bytesPerSec: 30e6, cpuPerOpNs: 2_000, lat: []float64{3, 1}},
		{opsPerSec: 1e6, bytesPerSec: 30e6, cpuPerOpNs: 1_000, lat: []float64{1}},
	}
	for i := range want {
		g, w := sl[i], want[i]
		if g.opsPerSec != w.opsPerSec || g.bytesPerSec != w.bytesPerSec || g.cpuPerOpNs != w.cpuPerOpNs || len(g.lat) != len(w.lat) {
			t.Errorf("slice %d = %+v, want %+v", i, g, w)
		}
	}
	if got := medianOver(sl, func(s slice) float64 { return s.opsPerSec }); got != 1.5e6 {
		t.Errorf("median ops/s = %v, want 1.5e6", got)
	}
}

func TestMeterMeasuresAShortWindowWhole(t *testing.T) {
	m := newMeter(1)
	m.begin(10 * time.Millisecond)
	m.done(0, 5, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	m.finish()
	sl := m.slices()
	if len(sl) != 1 || len(sl[0].lat) != 1 || sl[0].opsPerSec <= 0 {
		t.Fatalf("slices of a window shorter than a sub-window: %+v", sl)
	}
}

package engine

import (
	"math"
	"testing"
	"time"

	"pblparallel/internal/obs"
)

// stageHist records ds as one pipeline stage's wall times and returns
// the engine's histogram for that stage.
func stageHist(ds ...time.Duration) *obs.Hist {
	m := NewMetrics()
	for _, d := range ds {
		m.ObserveStage("x", d)
	}
	return m.Snapshot().Stages["x"]
}

// TestQuantileSingleObservation: with one sample, every quantile must
// return exactly that sample — the Min/Max clamp makes the bucket
// interpolation degenerate to the observed value.
func TestQuantileSingleObservation(t *testing.T) {
	d := 3 * time.Millisecond
	h := stageHist(d)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != d.Seconds() {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, d.Seconds())
		}
	}
}

// TestQuantileOverflowBucket: samples past the last finite bound land in
// the overflow bucket, which has no upper edge to interpolate toward —
// the estimate must report the exact observed Max, not +Inf or a bound.
func TestQuantileOverflowBucket(t *testing.T) {
	h := stageHist(20*time.Second, 25*time.Second) // beyond the 16s top bound
	// Overflow interpolates over [Min=20s, Max=25s]:
	// p25 has rank 0.5 of 2 → fraction 0.25 → 21.25s;
	// p99 has rank 1.98 → fraction 0.99 → 24.95s.
	if got, want := h.Quantile(0.25), 21.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("p25 in overflow = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0.99), 24.95; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 in overflow = %v, want %v", got, want)
	}
	if got := h.Quantile(1); got != 25 {
		t.Errorf("p100 = %v, want exact Max 25s", got)
	}

	solo := stageHist(time.Minute)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := solo.Quantile(q); got != 60 {
			t.Errorf("single overflow observation Quantile(%v) = %v, want 60s", q, got)
		}
	}
}

// TestQuantileInterpolatesWithinBucket: many samples spread over buckets
// give monotone estimates bounded by the observed range.
func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	h := stageHist(ds...)
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < h.Min() || got > h.Max() {
			t.Errorf("Quantile(%v) = %v outside [%v,%v]", q, got, h.Min(), h.Max())
		}
		if got < prev {
			t.Errorf("Quantile(%v) = %v < previous %v (not monotone)", q, got, prev)
		}
		prev = got
	}
	// p50 of 1..100ms should land in the (2^-5 s, 2^-4 s] bucket.
	if p50 := h.Quantile(0.5); p50 <= 0.03125 || p50 > 0.0625 {
		t.Errorf("p50 = %v, want within (31.25ms,62.5ms]", p50)
	}
	// q=0 is out of contract (0 < q <= 1) but must not panic; any
	// clamped value is fine.
	if q0 := h.Quantile(0); q0 < h.Min() || q0 > h.Max() {
		t.Errorf("Quantile(0) = %v outside [%v,%v]", q0, h.Min(), h.Max())
	}
}

// TestQuantileEmptyHistogram: no observations → zero, not a panic.
func TestQuantileEmptyHistogram(t *testing.T) {
	if got := NewMetrics().Snapshot().Run.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

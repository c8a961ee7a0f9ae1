package obs

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHistQuantile checks the histogram's quantile estimator against
// its contract for arbitrary observation sets and quantile requests:
// the estimate is always clamped to the exact observed [Min, Max]
// (even for hostile q — negative, NaN, >1), it is monotone in q on the
// documented (0, 1] domain, and an empty histogram reads 0.
func FuzzHistQuantile(f *testing.F) {
	f.Add([]byte{100, 0, 0, 0, 200, 0, 0, 0}, 0.5, 0.95)
	f.Add([]byte{1, 0, 0, 0}, 0.01, 0.99)
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, qa, qb float64) {
		h := NewHist()
		for i := 0; i+4 <= len(data); i += 4 {
			h.Observe(float64(binary.LittleEndian.Uint32(data[i:])) * 1e-6) // µs → s
		}
		if h.Count() == 0 {
			if got := h.Quantile(qa); got != 0 {
				t.Fatalf("empty histogram: Quantile(%v) = %v, want 0", qa, got)
			}
			return
		}
		// Clamping holds for any q, including out-of-domain values.
		for _, q := range []float64{qa, qb, -1, 0, 2, math.NaN(), math.Inf(1)} {
			got := h.Quantile(q)
			if got < h.Min() || got > h.Max() {
				t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", q, got, h.Min(), h.Max())
			}
		}
		// Monotonicity on the documented domain: normalize the fuzzed
		// floats into (0, 1] and order them.
		norm := func(q float64) float64 {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return 0.5
			}
			q = math.Mod(math.Abs(q), 1)
			if q == 0 {
				return 1
			}
			return q
		}
		lo, hi := norm(qa), norm(qb)
		if lo > hi {
			lo, hi = hi, lo
		}
		if qlo, qhi := h.Quantile(lo), h.Quantile(hi); qlo > qhi {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%v > Quantile(%v)=%v", lo, qlo, hi, qhi)
		}
	})
}

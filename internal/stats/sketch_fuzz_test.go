package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// The merge fuzzers check the algebra the engine's deterministic
// reduction leans on: Merge must be associative and commutative in its
// result (within floating-point tolerance — the bit patterns may
// differ, the values may not), and the empty sketch must be an exact
// two-sided identity. Inputs come from raw fuzz bytes decoded as
// float64s; non-finite and astronomically large values are clamped out
// (the sketches make no NaN-propagation promises, and the property is
// about accumulation order, not overflow).

// fuzzFloats decodes at most 512 usable float64s from raw bytes.
func fuzzFloats(data []byte) []float64 {
	var out []float64
	for len(data) >= 8 && len(out) < 512 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			continue
		}
		out = append(out, x)
	}
	return out
}

// fuzzScales returns the comparison scales for a sample: the largest
// input magnitude (mean-sized quantities) and the accumulated
// second-moment magnitude (M2/C-sized quantities). Errors are measured
// against the natural scale of what was summed, not the possibly
// cancelled final value.
func fuzzScales(xs []float64) (meanScale, momentScale float64) {
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, maxAbs * maxAbs * float64(len(xs))
}

// fuzzEq reports |a-b| <= 1e-9·max(1, scale).
func fuzzEq(a, b, scale float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, scale)
}

// splitThree cuts xs into three (possibly empty) contiguous parts.
func splitThree(xs []float64, cut1, cut2 uint16) (a, b, c []float64) {
	n := len(xs)
	i := 0
	j := 0
	if n > 0 {
		i = int(cut1) % (n + 1)
		j = i + int(cut2)%(n-i+1)
	}
	return xs[:i], xs[i:j], xs[j:]
}

func seedCorpus(f *testing.F) {
	pack := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	f.Add(pack(1, 2, 3, 4, 5, 6), uint16(2), uint16(2))
	f.Add(pack(2.5, 2.5, 2.5, 2.5), uint16(1), uint16(1))       // constant
	f.Add(pack(1e8+1, 1e8+2, 1e8-1, 1e8), uint16(2), uint16(1)) // offset
	f.Add(pack(3.25, 4.75), uint16(1), uint16(0))               // two-element
	f.Add(pack(-1e9, 1e9, 0, 1e-9), uint16(0), uint16(4))       // empty first part
	f.Add(pack(), uint16(0), uint16(0))                         // all empty
}

func FuzzMomentsMerge(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		xs := fuzzFloats(data)
		meanScale, momentScale := fuzzScales(xs)
		as, bs, cs := splitThree(xs, cut1, cut2)
		a, b, c := MomentsOf(as), MomentsOf(bs), MomentsOf(cs)

		// Identity: empty is an exact two-sided no-op.
		id := a
		id.Merge(Moments{})
		if id != a {
			t.Fatalf("merging empty mutated sketch: %+v -> %+v", a, id)
		}
		var fromEmpty Moments
		fromEmpty.Merge(a)
		if fromEmpty != a {
			t.Fatalf("merging into empty not a copy: %+v vs %+v", fromEmpty, a)
		}

		// Associativity: (a+b)+c vs a+(b+c).
		left := a
		left.Merge(b)
		left.Merge(c)
		bc := b
		bc.Merge(c)
		right := a
		right.Merge(bc)
		compareMoments(t, "associativity", left, right, meanScale, momentScale)

		// Commutativity in result: a+b vs b+a.
		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		compareMoments(t, "commutativity", ab, ba, meanScale, momentScale)

		// Merged partials agree with the one-pass sketch of the whole.
		compareMoments(t, "vs-sequential", left, MomentsOf(xs), meanScale, momentScale)
	})
}

func compareMoments(t *testing.T, what string, a, b Moments, meanScale, momentScale float64) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: n %d vs %d", what, a.N, b.N)
	}
	if a.N == 0 {
		return
	}
	if a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("%s: extrema (%v,%v) vs (%v,%v)", what, a.Min, a.Max, b.Min, b.Max)
	}
	if !fuzzEq(a.Mean, b.Mean, meanScale) {
		t.Fatalf("%s: mean %v vs %v", what, a.Mean, b.Mean)
	}
	if !fuzzEq(a.M2, b.M2, momentScale) {
		t.Fatalf("%s: m2 %v vs %v", what, a.M2, b.M2)
	}
}

func FuzzCoMomentsMerge(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		vals := fuzzFloats(data)
		// Interleave the decoded stream into (x, y) pairs.
		n := len(vals) / 2
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i], ys[i] = vals[2*i], vals[2*i+1]
		}
		meanScale, momentScale := fuzzScales(vals)
		ax, bx, cx := splitThree(xs, cut1, cut2)
		i, j := len(ax), len(ax)+len(bx)
		a, _ := CoMomentsOf(ax, ys[:i])
		b, _ := CoMomentsOf(bx, ys[i:j])
		c, _ := CoMomentsOf(cx, ys[j:])

		id := a
		id.Merge(CoMoments{})
		if id != a {
			t.Fatalf("merging empty mutated sketch: %+v -> %+v", a, id)
		}
		var fromEmpty CoMoments
		fromEmpty.Merge(a)
		if fromEmpty != a {
			t.Fatalf("merging into empty not a copy: %+v vs %+v", fromEmpty, a)
		}

		left := a
		left.Merge(b)
		left.Merge(c)
		bc := b
		bc.Merge(c)
		right := a
		right.Merge(bc)
		compareCoMoments(t, "associativity", left, right, meanScale, momentScale)

		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		compareCoMoments(t, "commutativity", ab, ba, meanScale, momentScale)

		whole, _ := CoMomentsOf(xs, ys)
		compareCoMoments(t, "vs-sequential", left, whole, meanScale, momentScale)
	})
}

func compareCoMoments(t *testing.T, what string, a, b CoMoments, meanScale, momentScale float64) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: n %d vs %d", what, a.N, b.N)
	}
	if a.N == 0 {
		return
	}
	if !fuzzEq(a.MeanX, b.MeanX, meanScale) || !fuzzEq(a.MeanY, b.MeanY, meanScale) {
		t.Fatalf("%s: means (%v,%v) vs (%v,%v)", what, a.MeanX, a.MeanY, b.MeanX, b.MeanY)
	}
	if !fuzzEq(a.M2X, b.M2X, momentScale) || !fuzzEq(a.M2Y, b.M2Y, momentScale) {
		t.Fatalf("%s: m2 (%v,%v) vs (%v,%v)", what, a.M2X, a.M2Y, b.M2X, b.M2Y)
	}
	if !fuzzEq(a.C, b.C, momentScale) {
		t.Fatalf("%s: co-moment %v vs %v", what, a.C, b.C)
	}
}

package stats

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// approxEq reports a ≈ b within rel, measured against the larger of 1
// and the operands' magnitudes — an absolute check near zero, relative
// away from it.
func approxEq(a, b, rel float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= rel*scale
}

// propertyCases are the randomized + pathological inputs every
// streaming-vs-two-pass property below sweeps: seeded normal draws,
// constant series (zero variance), the minimal two-element series, and
// large-magnitude offsets that break naive sum-of-squares accumulation.
func propertyCases(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	cases := map[string][]float64{
		"two-element":    {3.25, 4.75},
		"constant":       {2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
		"tiny-variance":  make([]float64, 64),
		"offset-1e8":     make([]float64, 512),
		"offset-neg-1e8": make([]float64, 257),
		"uniform":        make([]float64, 1000),
		"normal":         make([]float64, 999),
		"heavy-tail":     make([]float64, 333),
	}
	for i := range cases["tiny-variance"] {
		cases["tiny-variance"][i] = 1e6 + 1e-6*rng.Float64()
	}
	for i := range cases["offset-1e8"] {
		cases["offset-1e8"][i] = 1e8 + rng.NormFloat64()
	}
	for i := range cases["offset-neg-1e8"] {
		// 1e8 offsets sink naive Σx²−n·mean² completely (condition
		// number² · ε ≈ 2), while Welford holds the 1e-9 property.
		cases["offset-neg-1e8"][i] = -1e8 + 3*rng.NormFloat64()
	}
	for i := range cases["uniform"] {
		cases["uniform"][i] = 10 * rng.Float64()
	}
	for i := range cases["normal"] {
		cases["normal"][i] = 4.2 + 0.8*rng.NormFloat64()
	}
	for i := range cases["heavy-tail"] {
		cases["heavy-tail"][i] = math.Tan(math.Pi * (rng.Float64() - 0.5) * 0.9)
	}
	return cases
}

// TestStreamingMeanVarianceSDMatchTwoPass is the mean/variance/SD half
// of the streaming-equals-batch property: for every case the one-pass
// sketch must agree with the existing two-pass implementations within
// 1e-9 (relative, absolute near zero).
func TestStreamingMeanVarianceSDMatchTwoPass(t *testing.T) {
	const tol = 1e-9
	for name, xs := range propertyCases(t) {
		m := MomentsOf(xs)
		if int(m.N) != len(xs) {
			t.Fatalf("%s: sketch n=%d, want %d", name, m.N, len(xs))
		}
		wantMean := MustMean(xs)
		gotMean, err := m.MeanValue()
		if err != nil {
			t.Fatalf("%s: MeanValue: %v", name, err)
		}
		if !approxEq(gotMean, wantMean, tol) {
			t.Errorf("%s: streaming mean %v vs two-pass %v", name, gotMean, wantMean)
		}
		wantVar, err := Variance(xs)
		if err != nil {
			t.Fatalf("%s: Variance: %v", name, err)
		}
		gotVar, err := m.Variance()
		if err != nil {
			t.Fatalf("%s: sketch Variance: %v", name, err)
		}
		if !approxEq(gotVar, wantVar, tol) {
			t.Errorf("%s: streaming variance %v vs two-pass %v", name, gotVar, wantVar)
		}
		wantSD, _ := StdDev(xs)
		gotSD, err := m.StdDev()
		if err != nil {
			t.Fatalf("%s: sketch StdDev: %v", name, err)
		}
		if !approxEq(gotSD, wantSD, tol) {
			t.Errorf("%s: streaming SD %v vs two-pass %v", name, gotSD, wantSD)
		}
		wantPop, _ := PopulationVariance(xs)
		gotPop, _ := m.PopulationVariance()
		if !approxEq(gotPop, wantPop, tol) {
			t.Errorf("%s: streaming pop variance %v vs two-pass %v", name, gotPop, wantPop)
		}
		wantMin, _ := Min(xs)
		wantMax, _ := Max(xs)
		if m.Min != wantMin || m.Max != wantMax {
			t.Errorf("%s: sketch extrema (%v, %v), want (%v, %v)", name, m.Min, m.Max, wantMin, wantMax)
		}
	}
}

// pairFor derives a correlated partner series for the Pearson property:
// y = 0.6x + noise, with the noise seeded per case for reproducibility.
func pairFor(xs []float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.6*x + rng.NormFloat64()
	}
	return ys
}

// TestStreamingPearsonMatchesTwoPass: the CoMoments sketch must agree
// with the two-pass Pearson — r, t, df, p, covariance — within 1e-9.
func TestStreamingPearsonMatchesTwoPass(t *testing.T) {
	const tol = 1e-9
	for name, xs := range propertyCases(t) {
		if len(xs) < 3 {
			continue
		}
		ys := pairFor(xs, int64(len(xs)))
		cm, err := CoMomentsOf(xs, ys)
		if err != nil {
			t.Fatalf("%s: CoMomentsOf: %v", name, err)
		}
		want, wantErr := Pearson(xs, ys)
		got, gotErr := cm.Pearson()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: two-pass %v, streaming %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue // constant series: both reject zero variance
		}
		if !approxEq(got.R, want.R, tol) {
			t.Errorf("%s: streaming r %v vs two-pass %v", name, got.R, want.R)
		}
		if !approxEq(got.T, want.T, 1e-7) || !approxEq(got.P, want.P, 1e-7) {
			t.Errorf("%s: streaming (t=%v p=%v) vs two-pass (t=%v p=%v)", name, got.T, got.P, want.T, want.P)
		}
		if got.N != want.N || got.DF != want.DF {
			t.Errorf("%s: streaming (n=%d df=%v) vs two-pass (n=%d df=%v)", name, got.N, got.DF, want.N, want.DF)
		}
		wantCov, _ := Covariance(xs, ys)
		gotCov, err := cm.Covariance()
		if err != nil {
			t.Fatalf("%s: Covariance: %v", name, err)
		}
		if !approxEq(gotCov, wantCov, tol) {
			t.Errorf("%s: streaming covariance %v vs two-pass %v", name, gotCov, wantCov)
		}
	}
}

// TestStreamingEffectSizeMatchesTwoPass: CohensDFromMoments over two
// sketches must agree with CohensD over the slices within 1e-9 on every
// field the paper reports.
func TestStreamingEffectSizeMatchesTwoPass(t *testing.T) {
	const tol = 1e-9
	cases := propertyCases(t)
	for name, pre := range cases {
		if len(pre) < 2 {
			continue
		}
		post := make([]float64, len(pre))
		rng := rand.New(rand.NewSource(int64(len(pre)) * 7))
		for i, x := range pre {
			post[i] = x + 0.4 + 0.1*rng.NormFloat64()
		}
		want, wantErr := CohensD(pre, post)
		got, gotErr := CohensDFromMoments(MomentsOf(pre), MomentsOf(post))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: two-pass %v, streaming %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !approxEq(got.D, want.D, tol) || !approxEq(got.PooledSD, want.PooledSD, tol) {
			t.Errorf("%s: streaming d=%v pooled=%v vs two-pass d=%v pooled=%v",
				name, got.D, got.PooledSD, want.D, want.PooledSD)
		}
		if got.Band() != want.Band() {
			t.Errorf("%s: streaming band %v vs two-pass %v", name, got.Band(), want.Band())
		}
		if got.N1 != want.N1 || got.N2 != want.N2 {
			t.Errorf("%s: n mismatch", name)
		}
	}
}

// mergeTol measures merge-vs-sequential drift against the accumulated
// magnitude of what was summed (max|x|² · n for second moments,
// max|x| for means), not the possibly tiny final value: the merge
// re-derives deltas from rounded means, so its error scales with the
// data's magnitude, and that is the correct bound to pin.
func mergeTol(xs []float64) (meanScale, momentScale float64) {
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, maxAbs * maxAbs * float64(len(xs))
}

func withinScale(a, b, scale float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, scale)
}

// TestMomentsMergeEqualsSequential: splitting a series at every cut
// point, sketching the halves separately, and merging must match the
// single-pass sketch — the property the engine's chunked reduction is
// built on.
func TestMomentsMergeEqualsSequential(t *testing.T) {
	for name, xs := range propertyCases(t) {
		whole := MomentsOf(xs)
		meanScale, momentScale := mergeTol(xs)
		for _, cut := range []int{0, 1, len(xs) / 3, len(xs) / 2, len(xs) - 1, len(xs)} {
			if cut < 0 || cut > len(xs) {
				continue
			}
			left := MomentsOf(xs[:cut])
			left.Merge(MomentsOf(xs[cut:]))
			if left.N != whole.N || left.Min != whole.Min || left.Max != whole.Max {
				t.Fatalf("%s cut %d: count/extrema mismatch", name, cut)
			}
			if !withinScale(left.Mean, whole.Mean, meanScale) || !withinScale(left.M2, whole.M2, momentScale) {
				t.Errorf("%s cut %d: merged (mean=%v m2=%v) vs sequential (mean=%v m2=%v)",
					name, cut, left.Mean, left.M2, whole.Mean, whole.M2)
			}
		}
	}
}

// TestCoMomentsMergeEqualsSequential is the bivariate analog.
func TestCoMomentsMergeEqualsSequential(t *testing.T) {
	for name, xs := range propertyCases(t) {
		if len(xs) < 4 {
			continue
		}
		ys := pairFor(xs, 99)
		whole, err := CoMomentsOf(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		meanScale, momentScale := mergeTol(xs)
		cut := len(xs) / 2
		left, _ := CoMomentsOf(xs[:cut], ys[:cut])
		right, _ := CoMomentsOf(xs[cut:], ys[cut:])
		left.Merge(right)
		if left.N != whole.N {
			t.Fatalf("%s: count mismatch", name)
		}
		if !withinScale(left.MeanX, whole.MeanX, meanScale) ||
			!withinScale(left.M2X, whole.M2X, momentScale) ||
			!withinScale(left.M2Y, whole.M2Y, momentScale) ||
			!withinScale(left.C, whole.C, momentScale) {
			t.Errorf("%s: merged %+v vs sequential %+v", name, left, whole)
		}
	}
}

// TestSketchMergeIdentity pins the exact identity contract: merging an
// empty sketch is a bitwise no-op and merging into an empty sketch is a
// bitwise copy — not merely approximate.
func TestSketchMergeIdentity(t *testing.T) {
	m := MomentsOf([]float64{1, 2, 3})
	before := m
	m.Merge(Moments{})
	if m != before {
		t.Errorf("Moments: merging empty changed the sketch: %+v -> %+v", before, m)
	}
	var empty Moments
	empty.Merge(before)
	if empty != before {
		t.Errorf("Moments: merging into empty is not a copy: %+v vs %+v", empty, before)
	}

	cm, _ := CoMomentsOf([]float64{1, 2, 3}, []float64{2, 1, 4})
	cbefore := cm
	cm.Merge(CoMoments{})
	if cm != cbefore {
		t.Errorf("CoMoments: merging empty changed the sketch: %+v -> %+v", cbefore, cm)
	}
	var cempty CoMoments
	cempty.Merge(cbefore)
	if cempty != cbefore {
		t.Errorf("CoMoments: merging into empty is not a copy: %+v vs %+v", cempty, cbefore)
	}
}

// TestSketchInsufficientData pins the error contract on empty and
// one-element sketches, matching the slice functions.
func TestSketchInsufficientData(t *testing.T) {
	var m Moments
	if _, err := m.MeanValue(); err != ErrInsufficientData {
		t.Errorf("empty MeanValue err = %v", err)
	}
	m.Add(1)
	if _, err := m.Variance(); err != ErrInsufficientData {
		t.Errorf("n=1 Variance err = %v", err)
	}
	if _, err := m.PopulationVariance(); err != nil {
		t.Errorf("n=1 PopulationVariance err = %v", err)
	}
	if _, err := m.StdDev(); err != ErrInsufficientData {
		t.Errorf("n=1 StdDev err = %v", err)
	}
	var cm CoMoments
	cm.Add(1, 2)
	cm.Add(2, 3)
	if _, err := cm.R(); err != ErrInsufficientData {
		t.Errorf("n=2 R err = %v", err)
	}
	if _, err := cm.Covariance(); err != nil {
		t.Errorf("n=2 Covariance err = %v", err)
	}
	if err := cm.AddSlices([]float64{1}, []float64{1, 2}); err != ErrMismatchedLengths {
		t.Errorf("AddSlices mismatched err = %v", err)
	}
	if _, err := CoMomentsOf([]float64{1}, nil); err != ErrMismatchedLengths {
		t.Errorf("CoMomentsOf mismatched err = %v", err)
	}
	if _, err := CohensDFromMoments(m, m); err != ErrInsufficientData {
		t.Errorf("CohensDFromMoments n=1 err = %v", err)
	}
}

// TestCoMomentsPerfectCorrelation mirrors the two-pass Pearson edge:
// an exactly linear pair must clamp to r=1 with p=0.
func TestCoMomentsPerfectCorrelation(t *testing.T) {
	var cm CoMoments
	for i := 1; i <= 5; i++ {
		cm.Add(float64(i), 2*float64(i))
	}
	res, err := cm.Pearson()
	if err != nil {
		t.Fatal(err)
	}
	if res.R != 1 {
		t.Fatalf("r = %v, want 1", res.R)
	}
	if res.P != 0 {
		t.Fatalf("p = %v, want 0", res.P)
	}
	if !math.IsInf(res.T, 1) {
		t.Fatalf("t = %v, want +Inf", res.T)
	}
	if res.Band() != CorrVeryHigh {
		t.Fatalf("band = %v", res.Band())
	}
}

// TestCoMomentsZeroVariance pins the zero-variance rejection.
func TestCoMomentsZeroVariance(t *testing.T) {
	var cm CoMoments
	for i := 0; i < 5; i++ {
		cm.Add(3, float64(i))
	}
	if _, err := cm.R(); err == nil {
		t.Fatal("constant x: expected zero-variance error")
	}
	if _, err := cm.Pearson(); err == nil {
		t.Fatal("constant x: expected zero-variance error from Pearson")
	}
}

// TestMomentsString smoke-checks the render (coverage of the
// diagnostic path, and that it never panics on small sketches).
func TestMomentsString(t *testing.T) {
	m := MomentsOf([]float64{1, 2, 3, 4})
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// coMomentsBits is cm's fields as raw bits, so a comparison tells -0
// from +0 and is bit for bit rather than ==.
func coMomentsBits(cm CoMoments) [8]uint64 {
	return [8]uint64{uint64(cm.N), math.Float64bits(cm.MeanX), math.Float64bits(cm.MeanXC),
		math.Float64bits(cm.MeanY), math.Float64bits(cm.MeanYC), math.Float64bits(cm.M2X),
		math.Float64bits(cm.M2Y), math.Float64bits(cm.C)}
}

// TestPairSketchMatchesCoMoments pins PairSketch bit for bit against
// CoMoments.Add after every observation of random streams (N = 1 and 2
// included) and of the property cases, and its marginals against
// Moments.Add: the mega-cohort kernel relies on both identities to
// keep its output bytes.
func TestPairSketchMatchesCoMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	streams := map[string][2][]float64{}
	for _, n := range []int{1, 2, 3, 17, 4096} {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = 1 + 4*rng.Float64()
			ys[i] = xs[i] + 0.5*rng.NormFloat64()
		}
		streams["random-"+strconv.Itoa(n)] = [2][]float64{xs, ys}
	}
	for name, xs := range propertyCases(t) {
		streams[name] = [2][]float64{xs, pairFor(xs, int64(len(xs)))}
	}
	for name, s := range streams {
		var (
			p      PairSketch
			cm     CoMoments
			mx, my Moments
		)
		for i := range s[0] {
			p.Add(s[0][i], s[1][i])
			cm.Add(s[0][i], s[1][i])
			mx.Add(s[0][i])
			my.Add(s[1][i])
			if coMomentsBits(p.CoMoments()) != coMomentsBits(cm) {
				t.Fatalf("%s: after %d pairs PairSketch %+v, CoMoments %+v", name, i+1, p.CoMoments(), cm)
			}
			if p.X != mx || p.Y != my {
				t.Fatalf("%s: after %d pairs marginals %+v %+v, Moments %+v %+v", name, i+1, p.X, p.Y, mx, my)
			}
		}
	}
	if (PairSketch{}).CoMoments() != (CoMoments{}) {
		t.Fatal("empty PairSketch is not the empty CoMoments")
	}
}

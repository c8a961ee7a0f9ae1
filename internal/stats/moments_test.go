package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSkewnessSymmetricIsZero(t *testing.T) {
	xs := []float64{-3, -2, -1, 0, 1, 2, 3}
	s, err := Skewness(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s, 0, 1e-12) {
		t.Fatalf("skewness = %v", s)
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 1, 10} // long right tail
	s, err := Skewness(right)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("right-tailed skewness = %v", s)
	}
	left := []float64{-10, 1, 1, 1, 1}
	s2, err := Skewness(left)
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= 0 {
		t.Fatalf("left-tailed skewness = %v", s2)
	}
	if !almostEqual(s, -s2, 1e-12) {
		t.Fatalf("mirror asymmetry: %v vs %v", s, s2)
	}
}

func TestSkewnessErrors(t *testing.T) {
	if _, err := Skewness([]float64{1, 2}); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	if _, err := Skewness([]float64{2, 2, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestExcessKurtosisNormalSample(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := randNormal(rng, 50000, 0, 1)
	k, err := ExcessKurtosis(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k) > 0.1 {
		t.Fatalf("normal kurtosis = %v", k)
	}
}

func TestExcessKurtosisHeavyTails(t *testing.T) {
	// A two-point mixture with rare large outliers has positive excess.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 0.1 * float64(i%3)
	}
	xs[0], xs[1] = 50, -50
	k, err := ExcessKurtosis(xs)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 0 {
		t.Fatalf("heavy-tail kurtosis = %v", k)
	}
	if _, err := ExcessKurtosis([]float64{1, 2, 3}); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	if _, err := ExcessKurtosis([]float64{1, 1, 1, 1}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestRegLowerGammaKnown(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := RegLowerGamma(1, x); !almostEqual(got, want, 1e-12) {
			t.Fatalf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.2, 1, 3} {
		want := math.Erf(math.Sqrt(x))
		if got := RegLowerGamma(0.5, x); !almostEqual(got, want, 1e-10) {
			t.Fatalf("P(.5,%v) = %v, want %v", x, got, want)
		}
	}
	if RegLowerGamma(2, 0) != 0 {
		t.Fatal("P(a,0) must be 0")
	}
}

func TestRegLowerGammaPanics(t *testing.T) {
	for _, c := range []struct{ a, x float64 }{{0, 1}, {-1, 1}, {1, -1}, {1, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegLowerGamma(%v,%v) did not panic", c.a, c.x)
				}
			}()
			RegLowerGamma(c.a, c.x)
		}()
	}
}

func TestRegLowerGammaMonotoneProperty(t *testing.T) {
	f := func(aRaw, x1Raw, x2Raw float64) bool {
		a := 0.5 + math.Abs(clamp(aRaw, -20, 20))
		x1 := math.Abs(clamp(x1Raw, -50, 50))
		x2 := math.Abs(clamp(x2Raw, -50, 50))
		if math.IsNaN(a) || math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		p1 := RegLowerGamma(a, x1)
		p2 := RegLowerGamma(a, x2)
		return p1 <= p2+1e-12 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareCDFKnown(t *testing.T) {
	// Chi-square k=2 is Exp(1/2): CDF(x) = 1 - e^{-x/2}.
	for _, x := range []float64{0.5, 2, 5.991} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); !almostEqual(got, want, 1e-12) {
			t.Fatalf("chi2(%v;2) = %v, want %v", x, got, want)
		}
	}
	// The classic 95th percentile of chi-square(2) is 5.991.
	if got := ChiSquareCDF(5.991, 2); !almostEqual(got, 0.95, 1e-3) {
		t.Fatalf("CDF(5.991;2) = %v", got)
	}
	if ChiSquareCDF(-1, 2) != 0 || ChiSquareCDF(0, 2) != 0 {
		t.Fatal("nonpositive x must give 0")
	}
}

func TestChiSquareCDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChiSquareCDF with k<=0 did not panic")
		}
	}()
	ChiSquareCDF(1, 0)
}

func TestJarqueBeraNormalSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := randNormal(rng, 5000, 4, 0.25)
	r, err := JarqueBera(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !r.NormalityPlausible(0.01) {
		t.Fatalf("normal sample rejected: %+v", r)
	}
}

func TestJarqueBeraRejectsUniform(t *testing.T) {
	// Uniform has kurtosis -1.2: at n=5000 JB rejects decisively.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	r, err := JarqueBera(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalityPlausible(0.05) {
		t.Fatalf("uniform sample accepted: %+v", r)
	}
	if r.Kurtosis > -0.8 {
		t.Fatalf("uniform kurtosis = %v", r.Kurtosis)
	}
}

func TestJarqueBeraErrors(t *testing.T) {
	if _, err := JarqueBera([]float64{1, 2, 3}); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	if _, err := JarqueBera([]float64{1, 1, 1, 1, 1, 1, 1, 1}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestMeanCIBracketsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := randNormal(rng, 124, 3.81, 0.26)
	lo, hi, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	m := MustMean(xs)
	if !(lo < m && m < hi) {
		t.Fatalf("CI [%v,%v] does not bracket %v", lo, hi, m)
	}
	// Half-width ≈ t_{.975,123} * sd/sqrt(n) ≈ 1.98*0.26/11.1 ≈ 0.046.
	if hw := (hi - lo) / 2; hw < 0.03 || hw > 0.07 {
		t.Fatalf("half-width = %v", hw)
	}
}

func TestMeanCIWiderAtHigherConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := randNormal(rng, 60, 0, 1)
	lo95, hi95, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	lo99, hi99, err := MeanCI(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if hi99-lo99 <= hi95-lo95 {
		t.Fatal("99% CI not wider than 95%")
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, _, err := MeanCI([]float64{1}, 0.95); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("bad confidence accepted")
	}
}

// studentTQuantileFull is studentTQuantile without the early stop: all
// 200 bisection steps, the reference the stopping rule must match.
func studentTQuantileFull(p, df float64) float64 {
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestStudentTQuantileEarlyStopBitIdentical: stopping at the bisection's
// fixed point returns the same bits as running every step.
func TestStudentTQuantileEarlyStopBitIdentical(t *testing.T) {
	ps := []float64{1e-9, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-9}
	for k := 1; k < 32; k++ {
		ps = append(ps, float64(k)/32)
	}
	// df 123 at p 0.975 is MeanCI's 95% interval at n = 124.
	for _, df := range []float64{1, 2, 3, 5, 8, 13, 30, 61, 100, 123, 250, 500, 1000} {
		for _, p := range append(ps, 0.975) {
			got, want := studentTQuantile(p, df), studentTQuantileFull(p, df)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("df=%v p=%v: early stop %v (%#x), full bisection %v (%#x)",
					df, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestStudentTQuantileInvertsCDF(t *testing.T) {
	for _, df := range []float64{1, 5, 30, 123} {
		for _, p := range []float64{0.6, 0.9, 0.95, 0.975, 0.995} {
			q := studentTQuantile(p, df)
			if back := StudentTCDF(q, df); !almostEqual(back, p, 1e-9) {
				t.Fatalf("df=%v p=%v: CDF(quantile)=%v", df, p, back)
			}
		}
	}
	if studentTQuantile(0.5, 10) != 0 {
		t.Fatal("median quantile should be 0")
	}
	// The canonical t_{0.975,∞→120} ≈ 1.98.
	if q := studentTQuantile(0.975, 120); math.Abs(q-1.9799) > 5e-3 {
		t.Fatalf("t(.975,120) = %v", q)
	}
}

package stats

import (
	"fmt"
	"math"
)

// Skewness returns the adjusted Fisher-Pearson sample skewness
// g1 · √(n(n-1))/(n-2), the spreadsheet-compatible estimator.
func Skewness(xs []float64) (float64, error) {
	n := float64(len(xs))
	if n < 3 {
		return 0, ErrInsufficientData
	}
	m := MustMean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0, fmt.Errorf("stats: skewness undefined for zero variance")
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2), nil
}

// ExcessKurtosis returns the bias-adjusted sample excess kurtosis
// (normal distribution → 0).
func ExcessKurtosis(xs []float64) (float64, error) {
	n := float64(len(xs))
	if n < 4 {
		return 0, ErrInsufficientData
	}
	m := MustMean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0, fmt.Errorf("stats: kurtosis undefined for zero variance")
	}
	g2 := m4/(m2*m2) - 3
	return ((n+1)*g2 + 6) * (n - 1) / ((n - 2) * (n - 3)), nil
}

// RegLowerGamma computes the regularized lower incomplete gamma
// function P(a, x), by series expansion for x < a+1 and by the
// continued fraction for the complement otherwise (Numerical Recipes).
func RegLowerGamma(a, x float64) float64 {
	if a <= 0 {
		panic(fmt.Sprintf("stats: RegLowerGamma requires a > 0, got %v", a))
	}
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: RegLowerGamma requires x >= 0, got %v", x))
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
	)
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) = 1 - P(a,x) by continued fraction (modified
// Lentz).
func gammaCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
		fpmin   = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF returns P(X <= x) for a chi-square distribution with k
// degrees of freedom.
func ChiSquareCDF(x, k float64) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("stats: ChiSquareCDF requires k > 0, got %v", k))
	}
	if x <= 0 {
		return 0
	}
	return RegLowerGamma(k/2, x/2)
}

// JarqueBeraResult reports the normality test the analysis runs before
// trusting its t-tests.
type JarqueBeraResult struct {
	Statistic float64
	P         float64 // chi-square(2) upper tail
	Skewness  float64
	Kurtosis  float64
	N         int
}

// NormalityPlausible reports whether the test fails to reject normality
// at the given alpha.
func (r JarqueBeraResult) NormalityPlausible(alpha float64) bool { return r.P >= alpha }

// JarqueBera runs the Jarque-Bera normality test: JB = n/6 (S² + K²/4)
// against chi-square with 2 degrees of freedom. It uses the unadjusted
// moment estimators, as the original test defines.
func JarqueBera(xs []float64) (JarqueBeraResult, error) {
	n := float64(len(xs))
	if n < 8 {
		return JarqueBeraResult{}, ErrInsufficientData
	}
	m := MustMean(xs)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	if m2 == 0 {
		return JarqueBeraResult{}, fmt.Errorf("stats: jarque-bera undefined for zero variance")
	}
	s := m3 / math.Pow(m2, 1.5)
	k := m4/(m2*m2) - 3
	jb := n / 6 * (s*s + k*k/4)
	return JarqueBeraResult{
		Statistic: jb,
		P:         1 - ChiSquareCDF(jb, 2),
		Skewness:  s,
		Kurtosis:  k,
		N:         len(xs),
	}, nil
}

// MeanCI returns the t-based confidence interval for the mean of xs at
// the given confidence level (e.g. 0.95).
func MeanCI(xs []float64, confidence float64) (lo, hi float64, err error) {
	if len(xs) < 2 {
		return 0, 0, ErrInsufficientData
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	m := MustMean(xs)
	sd, err := StdDev(xs)
	if err != nil {
		return 0, 0, err
	}
	n := float64(len(xs))
	se := sd / math.Sqrt(n)
	q := studentTQuantile(1-(1-confidence)/2, n-1)
	return m - q*se, m + q*se, nil
}

// studentTQuantile inverts StudentTCDF by bisection; df >= 1 assumed.
// It stops once the midpoint equals an end of the bracket: no later step
// can move the bracket's midpoint, so the answer is already final.
func studentTQuantile(p, df float64) float64 {
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return mid
		}
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

package stats

import (
	"fmt"
	"math"
)

// This file is the streaming half of the package: one-pass, mergeable
// moment sketches that compute the same descriptive statistics,
// correlations, and effect sizes as the two-pass slice functions, but
// in O(1) memory per accumulator and with an associative Merge so
// per-worker (and, eventually, per-shard) partials combine exactly.
//
// The merge identities are deliberately exact: merging an empty sketch
// into another is a bitwise no-op, and merging into an empty sketch is
// a bitwise copy. That makes a fold over chunk partials independent of
// how many chunks turned out empty, which the engine's deterministic
// reduction (engine.Reduce) relies on for byte-identical output at any
// worker count.

// Moments is a one-pass mergeable sketch of a univariate sample:
// count, mean, and centered second moment M2 = Σ(x-mean)², updated with
// Welford's algorithm, plus the extrema. The zero value is an empty
// sketch, ready to use. Methods are not safe for concurrent use; give
// each worker its own sketch and Merge.
//
// The mean carries a Neumaier compensation term (MeanC): the effective
// mean is Mean+MeanC held to roughly double-double precision. Without
// it, a running mean stored at a large offset (say 1e8) cannot resolve
// increments below its own ulp, and derived differences — effect
// sizes, co-moments — lose ~8 digits. With it the streaming results
// match the two-pass implementations within 1e-9 even on the
// pathological offset cases.
type Moments struct {
	N     int64   `json:"n"`
	Mean  float64 `json:"mean"`
	MeanC float64 `json:"mean_c,omitempty"`
	M2    float64 `json:"m2"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// addComp adds v to the compensated sum (sum, comp) with Neumaier's
// two-sum, capturing the rounding error of each addition.
func addComp(sum, comp, v float64) (float64, float64) {
	t := sum + v
	if math.Abs(sum) >= math.Abs(v) {
		comp += (sum - t) + v
	} else {
		comp += (v - t) + sum
	}
	return t, comp
}

// Add folds one observation into the sketch.
func (m *Moments) Add(x float64) {
	m.N++
	if m.N == 1 {
		m.Mean = x
		m.Min, m.Max = x, x
		return
	}
	// d is the delta against the effective (compensated) mean: x-Mean is
	// exact whenever x and Mean share magnitude (Sterbenz), and MeanC
	// restores the bits the stored mean cannot hold.
	d := (x - m.Mean) - m.MeanC
	m.Mean, m.MeanC = addComp(m.Mean, m.MeanC, d/float64(m.N))
	// d uses the pre-update mean, d2 the post-update mean; their product
	// telescopes to the exact centered second moment (Welford).
	d2 := (x - m.Mean) - m.MeanC
	m.M2 += d * d2
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
}

// AddSlice folds every element of xs, in order.
func (m *Moments) AddSlice(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// MomentsOf sketches xs in one pass.
func MomentsOf(xs []float64) Moments {
	var m Moments
	m.AddSlice(xs)
	return m
}

// Merge folds other into m as if every observation behind other had
// been Added to m (Chan et al.'s pairwise update). Merging an empty
// sketch is a bitwise no-op; merging into an empty sketch is a bitwise
// copy — both exact, so empty chunks never perturb a reduction.
func (m *Moments) Merge(other Moments) {
	if other.N == 0 {
		return
	}
	if m.N == 0 {
		*m = other
		return
	}
	nA, nB := float64(m.N), float64(other.N)
	nT := nA + nB
	d := (other.Mean - m.Mean) + (other.MeanC - m.MeanC)
	m.Mean, m.MeanC = addComp(m.Mean, m.MeanC, d*nB/nT)
	m.M2 += other.M2 + d*d*nA*nB/nT
	m.N += other.N
	if other.Min < m.Min {
		m.Min = other.Min
	}
	if other.Max > m.Max {
		m.Max = other.Max
	}
}

// MeanValue returns the running (compensated) mean.
func (m Moments) MeanValue() (float64, error) {
	if m.N == 0 {
		return 0, ErrInsufficientData
	}
	return m.Mean + m.MeanC, nil
}

// Variance returns the unbiased sample variance (divisor n-1).
func (m Moments) Variance() (float64, error) {
	if m.N < 2 {
		return 0, ErrInsufficientData
	}
	return m.M2 / float64(m.N-1), nil
}

// PopulationVariance returns the biased (divisor n) variance.
func (m Moments) PopulationVariance() (float64, error) {
	if m.N == 0 {
		return 0, ErrInsufficientData
	}
	return m.M2 / float64(m.N), nil
}

// StdDev returns the unbiased sample standard deviation.
func (m Moments) StdDev() (float64, error) {
	v, err := m.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// String renders the sketch in the package's "M=…, SD=…, n=…" style.
func (m Moments) String() string {
	sd, _ := m.StdDev()
	return fmt.Sprintf("M=%.6f SD=%.6f n=%d (min=%.3f max=%.3f)",
		m.Mean+m.MeanC, sd, m.N, m.Min, m.Max)
}

// CoMoments is a one-pass mergeable sketch of a bivariate sample:
// both marginal Welford moments plus the centered co-moment
// C = Σ(x-meanX)(y-meanY), which streams Pearson correlation and
// covariance. The zero value is an empty sketch. Both means carry the
// same Neumaier compensation as Moments, for the same reason: the
// co-moment of offset data is only as accurate as the deltas against
// the running means.
type CoMoments struct {
	N      int64   `json:"n"`
	MeanX  float64 `json:"mean_x"`
	MeanXC float64 `json:"mean_x_c,omitempty"`
	MeanY  float64 `json:"mean_y"`
	MeanYC float64 `json:"mean_y_c,omitempty"`
	M2X    float64 `json:"m2_x"`
	M2Y    float64 `json:"m2_y"`
	C      float64 `json:"c"`
}

// Add folds one (x, y) observation into the sketch.
func (cm *CoMoments) Add(x, y float64) {
	cm.N++
	if cm.N == 1 {
		cm.MeanX, cm.MeanY = x, y
		return
	}
	n := float64(cm.N)
	dx := (x - cm.MeanX) - cm.MeanXC
	dy := (y - cm.MeanY) - cm.MeanYC
	cm.MeanX, cm.MeanXC = addComp(cm.MeanX, cm.MeanXC, dx/n)
	cm.MeanY, cm.MeanYC = addComp(cm.MeanY, cm.MeanYC, dy/n)
	dx2 := (x - cm.MeanX) - cm.MeanXC
	dy2 := (y - cm.MeanY) - cm.MeanYC
	cm.M2X += dx * dx2
	cm.M2Y += dy * dy2
	// dx is pre-update, dy2 post-update: the cross term telescopes to
	// the exact centered co-moment, same trick as the marginals.
	cm.C += dx * dy2
}

// AddSlices folds the paired samples element-wise, in order.
func (cm *CoMoments) AddSlices(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return ErrMismatchedLengths
	}
	for i := range xs {
		cm.Add(xs[i], ys[i])
	}
	return nil
}

// CoMomentsOf sketches the paired samples in one pass.
func CoMomentsOf(xs, ys []float64) (CoMoments, error) {
	var cm CoMoments
	if err := cm.AddSlices(xs, ys); err != nil {
		return CoMoments{}, err
	}
	return cm, nil
}

// Merge folds other into cm with the pairwise co-moment update. The
// identity cases mirror Moments.Merge: empty other is a bitwise no-op,
// empty cm a bitwise copy.
func (cm *CoMoments) Merge(other CoMoments) {
	if other.N == 0 {
		return
	}
	if cm.N == 0 {
		*cm = other
		return
	}
	nA, nB := float64(cm.N), float64(other.N)
	nT := nA + nB
	dX := (other.MeanX - cm.MeanX) + (other.MeanXC - cm.MeanXC)
	dY := (other.MeanY - cm.MeanY) + (other.MeanYC - cm.MeanYC)
	w := nA * nB / nT
	cm.M2X += other.M2X + dX*dX*w
	cm.M2Y += other.M2Y + dY*dY*w
	cm.C += other.C + dX*dY*w
	cm.MeanX, cm.MeanXC = addComp(cm.MeanX, cm.MeanXC, dX*nB/nT)
	cm.MeanY, cm.MeanYC = addComp(cm.MeanY, cm.MeanYC, dY*nB/nT)
	cm.N += other.N
}

// PairSketch is CoMoments held as its two marginal Moments plus the
// co-moment C. From an empty start, CoMoments.Add applies to each
// marginal exactly the Welford step Moments.Add applies, so X and Y
// are bit for bit CoMoments' marginals and a caller that already
// keeps both Moments pays one division per marginal, not two.
// CoMoments converts it. The zero value is an empty sketch.
type PairSketch struct {
	X, Y Moments
	C    float64
}

// Add folds one (x, y) observation into the sketch.
func (p *PairSketch) Add(x, y float64) {
	if p.X.N == 0 {
		p.X.Add(x)
		p.Y.Add(y)
		return
	}
	dx := (x - p.X.Mean) - p.X.MeanC
	p.X.Add(x)
	p.Y.Add(y)
	// dx is pre-update, the y delta post-update: CoMoments.Add's term.
	p.C += dx * ((y - p.Y.Mean) - p.Y.MeanC)
}

// CoMoments returns the sketch as the CoMoments that Adding the same
// pairs, in the same order, would have built.
func (p PairSketch) CoMoments() CoMoments {
	return CoMoments{N: p.X.N, MeanX: p.X.Mean, MeanXC: p.X.MeanC, MeanY: p.Y.Mean,
		MeanYC: p.Y.MeanC, M2X: p.X.M2, M2Y: p.Y.M2, C: p.C}
}

// Covariance returns the unbiased sample covariance.
func (cm CoMoments) Covariance() (float64, error) {
	if cm.N < 2 {
		return 0, ErrInsufficientData
	}
	return cm.C / float64(cm.N-1), nil
}

// R returns the streaming Pearson correlation coefficient, clamped to
// [-1, 1] against floating-point drift like the two-pass Pearson.
func (cm CoMoments) R() (float64, error) {
	if cm.N < 3 {
		return 0, ErrInsufficientData
	}
	if cm.M2X == 0 || cm.M2Y == 0 {
		return 0, fmt.Errorf("stats: pearson: zero variance in input")
	}
	r := cm.C / math.Sqrt(cm.M2X*cm.M2Y)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// Pearson returns the full PearsonResult — r plus the t-based
// significance test on n-2 degrees of freedom — computed from the
// sketch alone, mirroring the two-pass Pearson function.
func (cm CoMoments) Pearson() (PearsonResult, error) {
	r, err := cm.R()
	if err != nil {
		return PearsonResult{}, err
	}
	df := float64(cm.N - 2)
	var t, p float64
	if math.Abs(r) == 1 {
		t = math.Inf(int(math.Copysign(1, r)))
		p = 0
	} else {
		t = r * math.Sqrt(df/(1-r*r))
		p = TTwoTailedP(t, df)
	}
	return PearsonResult{R: r, T: t, DF: df, P: p, N: int(cm.N)}, nil
}

// CohensDFromMoments computes the paper's effect size
// d = (M2 - M1) / sqrt((SD1² + SD2²)/2) from two sketches — the
// streaming variant of CohensD, sharing CohensDFromSummary so both
// paths band and render identically.
func CohensDFromMoments(first, second Moments) (CohensDResult, error) {
	sd1, err := first.StdDev()
	if err != nil {
		return CohensDResult{}, err
	}
	sd2, err := second.StdDev()
	if err != nil {
		return CohensDResult{}, err
	}
	return CohensDFromSummary(first.Mean+first.MeanC, sd1, int(first.N),
		second.Mean+second.MeanC, sd2, int(second.N))
}

package respond

import (
	"fmt"
	"math"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

// Targets are the published moments calibration drives toward.
type Targets struct {
	// EmphasisComposite / GrowthComposite: per-wave per-skill composite
	// means (Tables 5 and 6).
	EmphasisComposite [2]map[string]float64
	GrowthComposite   [2]map[string]float64
	// EmphasisSD / GrowthSD: per-wave SD of per-student category
	// averages (Tables 2 and 3).
	EmphasisSD [2]float64
	GrowthSD   [2]float64
	// SkillR: per-wave per-skill emphasis↔growth Pearson r (Table 4).
	SkillR [2]map[string]float64
}

// PaperTargets builds the target set from the embedded published tables.
func PaperTargets() Targets {
	t := Targets{
		EmphasisComposite: [2]map[string]float64{paperdata.Table5FirstHalf, paperdata.Table5SecondHalf},
		GrowthComposite:   [2]map[string]float64{paperdata.Table6FirstHalf, paperdata.Table6SecondHalf},
		EmphasisSD:        [2]float64{paperdata.Table2.SD1, paperdata.Table2.SD2},
		GrowthSD:          [2]float64{paperdata.Table3.SD1, paperdata.Table3.SD2},
	}
	for w := 0; w < 2; w++ {
		t.SkillR[w] = make(map[string]float64, len(paperdata.Table4))
	}
	for skill, row := range paperdata.Table4 {
		t.SkillR[0][skill] = row.FirstHalfR
		t.SkillR[1][skill] = row.SecondHalfR
	}
	return t
}

// Validate checks the target set covers every instrument element.
func (t Targets) Validate(ins *survey.Instrument) error {
	for w := 0; w < 2; w++ {
		for _, e := range ins.Elements {
			for name, m := range map[string]map[string]float64{
				"EmphasisComposite": t.EmphasisComposite[w],
				"GrowthComposite":   t.GrowthComposite[w],
				"SkillR":            t.SkillR[w],
			} {
				if _, ok := m[e.Name]; !ok {
					return fmt.Errorf("respond: targets wave %d missing %s for %q", w, name, e.Name)
				}
			}
		}
		if t.EmphasisSD[w] <= 0 || t.GrowthSD[w] <= 0 {
			return fmt.Errorf("respond: targets wave %d has non-positive SD", w)
		}
	}
	return nil
}

// CalibrateOptions tunes the stochastic-approximation loop.
type CalibrateOptions struct {
	// Iterations of measure-and-adjust (default 40).
	Iterations int
	// SampleSize of the measurement cohort per iteration (default 1500;
	// larger is steadier but slower).
	SampleSize int
	// Seed makes the whole calibration deterministic.
	Seed int64
	// MeanStep, SDStep, RhoStep damp the three update rules.
	MeanStep, SDStep, RhoStep float64
}

// withDefaults fills unset options.
func (o CalibrateOptions) withDefaults() CalibrateOptions {
	if o.Iterations == 0 {
		o.Iterations = 40
	}
	if o.SampleSize == 0 {
		o.SampleSize = 1500
	}
	if o.MeanStep == 0 {
		o.MeanStep = 0.9
	}
	if o.SDStep == 0 {
		o.SDStep = 0.5
	}
	if o.RhoStep == 0 {
		o.RhoStep = 0.6
	}
	return o
}

// startingParams seeds the loop with the targets themselves as latent
// means and plausible variance decomposition.
func startingParams(ins *survey.Instrument, t Targets) Params {
	// The variance split matters: the student×skill effect (SkillSD*)
	// must dominate item noise, or discretized item averaging attenuates
	// the observable emphasis↔growth correlation below the paper's
	// strongest value (0.73) no matter how high Rho is pushed.
	p := Params{
		StudentCrossWave: 0.8,
		StudentRho:       0.7,
		ItemSD:           0.45,
	}
	for w := 0; w < 2; w++ {
		wp := WaveParams{
			EmphMu:        copyMap(t.EmphasisComposite[w]),
			GrowMu:        copyMap(t.GrowthComposite[w]),
			EmphStudentSD: t.EmphasisSD[w],
			GrowStudentSD: t.GrowthSD[w],
			SkillSDE:      0.40,
			SkillSDG:      0.40,
			Rho:           make(map[string]float64, len(ins.Elements)),
		}
		for _, e := range ins.Elements {
			wp.Rho[e.Name] = t.SkillR[w][e.Name]
		}
		p.Waves[w] = wp
	}
	return p
}

// Measurement captures the moments of one generated cohort in the same
// shape as Targets, for comparison and reporting.
type Measurement struct {
	EmphasisComposite [2]map[string]float64
	GrowthComposite   [2]map[string]float64
	EmphasisMean      [2]float64
	GrowthMean        [2]float64
	EmphasisSD        [2]float64
	GrowthSD          [2]float64
	SkillR            [2]map[string]float64
}

// Measure computes the calibration moments of a generated pair of waves.
func Measure(ins *survey.Instrument, mid, end survey.WaveData) (Measurement, error) {
	var m Measurement
	for w, wd := range []survey.WaveData{mid, end} {
		et, err := wd.CompositeTable(ins, survey.ClassEmphasis)
		if err != nil {
			return Measurement{}, err
		}
		gt, err := wd.CompositeTable(ins, survey.PersonalGrowth)
		if err != nil {
			return Measurement{}, err
		}
		m.EmphasisComposite[w] = et
		m.GrowthComposite[w] = gt
		eAvg := wd.CategoryAverages(survey.ClassEmphasis)
		gAvg := wd.CategoryAverages(survey.PersonalGrowth)
		esd, err := stats.StdDev(eAvg)
		if err != nil {
			return Measurement{}, err
		}
		gsd, err := stats.StdDev(gAvg)
		if err != nil {
			return Measurement{}, err
		}
		m.EmphasisMean[w] = stats.MustMean(eAvg)
		m.GrowthMean[w] = stats.MustMean(gAvg)
		m.EmphasisSD[w] = esd
		m.GrowthSD[w] = gsd
		m.SkillR[w] = make(map[string]float64, len(ins.Elements))
		for _, e := range ins.Elements {
			es, err := wd.SkillAverages(survey.ClassEmphasis, e.Name)
			if err != nil {
				return Measurement{}, err
			}
			gs, err := wd.SkillAverages(survey.PersonalGrowth, e.Name)
			if err != nil {
				return Measurement{}, err
			}
			pr, err := stats.Pearson(es, gs)
			if err != nil {
				return Measurement{}, err
			}
			m.SkillR[w][e.Name] = pr.R
		}
	}
	return m, nil
}

// Calibrate runs the stochastic-approximation loop: generate a large
// cohort, measure its moments, nudge the parameters toward the targets,
// repeat. It returns the calibrated parameters.
func Calibrate(ins *survey.Instrument, t Targets, opts CalibrateOptions) (Params, error) {
	if err := t.Validate(ins); err != nil {
		return Params{}, err
	}
	opts = opts.withDefaults()
	p := startingParams(ins, t)
	for iter := 0; iter < opts.Iterations; iter++ {
		g, err := NewGenerator(ins, p)
		if err != nil {
			return Params{}, err
		}
		mid, end, err := g.Generate(opts.SampleSize, opts.Seed+int64(iter))
		if err != nil {
			return Params{}, err
		}
		m, err := Measure(ins, mid, end)
		if err != nil {
			return Params{}, err
		}
		for w := 0; w < 2; w++ {
			wp := &p.Waves[w]
			for _, e := range ins.Elements {
				wp.EmphMu[e.Name] += opts.MeanStep * (t.EmphasisComposite[w][e.Name] - m.EmphasisComposite[w][e.Name])
				wp.GrowMu[e.Name] += opts.MeanStep * (t.GrowthComposite[w][e.Name] - m.GrowthComposite[w][e.Name])
				// Fisher-z update keeps rho in range and equalizes step
				// sizes across the correlation scale.
				zt := math.Atanh(clampRho(t.SkillR[w][e.Name]))
				zm := math.Atanh(clampRho(m.SkillR[w][e.Name]))
				zc := math.Atanh(clampRho(wp.Rho[e.Name]))
				wp.Rho[e.Name] = math.Tanh(zc + opts.RhoStep*(zt-zm))
			}
			wp.EmphStudentSD = adjustSD(wp.EmphStudentSD, t.EmphasisSD[w], m.EmphasisSD[w], opts.SDStep)
			wp.GrowStudentSD = adjustSD(wp.GrowStudentSD, t.GrowthSD[w], m.GrowthSD[w], opts.SDStep)
		}
	}
	return p, nil
}

// adjustSD multiplicatively nudges an SD parameter toward the target,
// clamped to stay positive and sane.
func adjustSD(cur, target, measured, step float64) float64 {
	if measured <= 1e-9 {
		return cur
	}
	ratio := math.Pow(target/measured, step)
	next := cur * ratio
	if next < 0.01 {
		next = 0.01
	}
	if next > 2 {
		next = 2
	}
	return next
}

func clampRho(r float64) float64 {
	if r > 0.99 {
		return 0.99
	}
	if r < -0.99 {
		return -0.99
	}
	return r
}

// UncalibratedParams returns the calibration loop's starting point (the
// published composite means used directly as latent means, with the
// default variance split and no iterations). It is the baseline for the
// calibration ablation: discretization bias and attenuation go
// uncorrected.
func UncalibratedParams(ins *survey.Instrument) (Params, error) {
	t := PaperTargets()
	if err := t.Validate(ins); err != nil {
		return Params{}, err
	}
	return startingParams(ins, t), nil
}

// PaperParams returns the parameters calibrated against the paper's
// published moments with a fixed seed: committed data (paper_params.go,
// pinned to a rerun by TestPaperParamsUpToDate), checked against ins.
func PaperParams(ins *survey.Instrument) (Params, error) {
	if err := paperParams.Validate(ins); err != nil {
		return Params{}, err
	}
	return paperParams.clone(), nil
}

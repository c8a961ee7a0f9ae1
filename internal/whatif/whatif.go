// Package whatif projects the effect of the paper's planned Spring 2019
// revision before running it — the comparison the authors say they will
// make ("We will then compare the results after this addition with the
// current results (Fall 2018)").
//
// The Discussion's diagnosis: Teamwork's emphasis↔growth correlation is
// the weakest (0.38 / 0.47) because Teamwork basics appear in only one
// assignment; the fix is to reinforce teamwork tasks in assignments two
// through five. The projection models that fix as a shift in the
// response model's calibration targets — a higher Teamwork correlation
// and a modest bump to its second-half growth composite — recalibrates,
// regenerates the study, and reports Fall-2018-vs-projected side by
// side.
package whatif

import (
	"context"
	"fmt"

	"pblparallel/internal/analysis"
	"pblparallel/internal/engine"
	"pblparallel/internal/paperdata"
	"pblparallel/internal/respond"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

// Intervention describes the modeled course change.
type Intervention struct {
	// Skill is the survey element the revision targets.
	Skill string
	// DeltaR is the hypothesized improvement of the emphasis↔growth
	// correlation in both halves (clamped below 0.95 total).
	DeltaR float64
	// DeltaGrowth is the hypothesized bump to the skill's growth
	// composite in the second half (the extra exercises produce some
	// extra growth), applied to the calibration target.
	DeltaGrowth float64
}

// TeamworkReinforcement is the paper's planned intervention with a
// conservative effect guess.
func TeamworkReinforcement() Intervention {
	return Intervention{
		Skill:       paperdata.Teamwork,
		DeltaR:      0.15,
		DeltaGrowth: 0.05,
	}
}

// Validate bounds the intervention.
func (iv Intervention) Validate(ins *survey.Instrument) error {
	if _, err := ins.Element(iv.Skill); err != nil {
		return err
	}
	if iv.DeltaR < 0 || iv.DeltaR > 0.5 {
		return fmt.Errorf("whatif: DeltaR %v outside [0,0.5]", iv.DeltaR)
	}
	if iv.DeltaGrowth < 0 || iv.DeltaGrowth > 0.5 {
		return fmt.Errorf("whatif: DeltaGrowth %v outside [0,0.5]", iv.DeltaGrowth)
	}
	return nil
}

// Projection is the before/after comparison.
type Projection struct {
	Intervention Intervention
	// Baseline and Projected hold the targeted skill's Table-4 row
	// under the Fall 2018 model and the revised model.
	Baseline  analysis.Table4Row
	Projected analysis.Table4Row
	// BaselineGrowthComposite / ProjectedGrowthComposite: the skill's
	// second-half growth composite means.
	BaselineGrowthComposite  float64
	ProjectedGrowthComposite float64
	N                        int
}

// CorrelationImproved reports whether the projected correlations rose
// in both halves.
func (p Projection) CorrelationImproved() bool {
	return p.Projected.FirstHalf.R > p.Baseline.FirstHalf.R &&
		p.Projected.SecondHalf.R > p.Baseline.SecondHalf.R
}

// adjustTargets applies the intervention to the calibration targets.
func adjustTargets(t respond.Targets, iv Intervention) respond.Targets {
	out := t
	for w := 0; w < 2; w++ {
		r := out.SkillR[w]
		cp := make(map[string]float64, len(r))
		for k, v := range r {
			cp[k] = v
		}
		nr := cp[iv.Skill] + iv.DeltaR
		if nr > 0.95 {
			nr = 0.95
		}
		cp[iv.Skill] = nr
		out.SkillR[w] = cp
	}
	g := make(map[string]float64, len(out.GrowthComposite[1]))
	for k, v := range out.GrowthComposite[1] {
		g[k] = v
	}
	ng := g[iv.Skill] + iv.DeltaGrowth
	if ng > 5 {
		ng = 5
	}
	g[iv.Skill] = ng
	out.GrowthComposite[1] = g
	return out
}

// Project runs the projection: generate the baseline study from the
// Fall 2018 calibration and the projected study from the adjusted
// calibration, analyze both, and extract the targeted skill's rows.
// n is the cohort size (use a large n for a stable projection; the
// paper's 124 carries its usual sampling error). The two branches run
// as independent jobs on eng; each derives its randomness only from
// seed, so the projection is identical for any worker count.
func Project(ctx context.Context, eng *engine.Engine, iv Intervention, n int, seed int64) (*Projection, error) {
	ins := survey.NewBeyerlein()
	if err := iv.Validate(ins); err != nil {
		return nil, err
	}
	if n < 8 {
		return nil, fmt.Errorf("whatif: n %d too small", n)
	}
	row := func(params respond.Params) (analysis.Table4Row, float64, error) {
		g, err := respond.NewGenerator(ins, params)
		if err != nil {
			return analysis.Table4Row{}, 0, err
		}
		mid, end, err := g.Generate(n, seed+1)
		if err != nil {
			return analysis.Table4Row{}, 0, err
		}
		rep, err := analysis.Run(analysis.Dataset{Instrument: ins, Mid: mid, End: end})
		if err != nil {
			return analysis.Table4Row{}, 0, err
		}
		var comp float64
		for _, item := range rep.Table6.SecondHalf {
			if item.Name == iv.Skill {
				comp = item.Score
			}
		}
		return rep.Table4[iv.Skill], comp, nil
	}
	type branch struct {
		row  analysis.Table4Row
		comp float64
	}
	branches := []func() (respond.Params, error){
		// Branch 0: the Fall 2018 baseline calibration.
		func() (respond.Params, error) { return respond.PaperParams(ins) },
		// Branch 1: recalibrate against the adjusted targets. A shorter
		// calibration suffices: they differ from the already-calibrated
		// baseline in only one skill.
		func() (respond.Params, error) {
			return respond.Calibrate(ins, adjustTargets(respond.PaperTargets(), iv), respond.CalibrateOptions{
				Iterations: 25,
				SampleSize: 1200,
				Seed:       seed,
			})
		},
	}
	results, err := engine.Map(ctx, eng, len(branches), func(_ context.Context, i int) (branch, error) {
		params, err := branches[i]()
		if err != nil {
			return branch{}, err
		}
		r, comp, err := row(params)
		return branch{row: r, comp: comp}, err
	})
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	return &Projection{
		Intervention:             iv,
		Baseline:                 results[0].row,
		Projected:                results[1].row,
		BaselineGrowthComposite:  results[0].comp,
		ProjectedGrowthComposite: results[1].comp,
		N:                        n,
	}, nil
}

// Render writes the projection as a short report.
func (p Projection) Render() string {
	band := func(r stats.PearsonResult) string { return string(r.Band()) }
	return fmt.Sprintf(
		"Spring 2019 projection for %s (ΔR=%.2f, Δgrowth=%.2f, n=%d):\n"+
			"  correlation H1: %.2f (%s) -> %.2f (%s)\n"+
			"  correlation H2: %.2f (%s) -> %.2f (%s)\n"+
			"  growth composite H2: %.2f -> %.2f\n",
		p.Intervention.Skill, p.Intervention.DeltaR, p.Intervention.DeltaGrowth, p.N,
		p.Baseline.FirstHalf.R, band(p.Baseline.FirstHalf),
		p.Projected.FirstHalf.R, band(p.Projected.FirstHalf),
		p.Baseline.SecondHalf.R, band(p.Baseline.SecondHalf),
		p.Projected.SecondHalf.R, band(p.Projected.SecondHalf),
		p.BaselineGrowthComposite, p.ProjectedGrowthComposite,
	)
}

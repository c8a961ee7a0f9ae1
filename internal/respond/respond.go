// Package respond synthesizes survey responses for the reproduction.
//
// The paper's raw data is 124 students' answers to the Beyerlein survey,
// which is not published. What *is* published is a complete set of summary
// statistics: per-skill composite means for both categories and both waves
// (Tables 5 and 6), the overall category means and standard deviations
// (Tables 2 and 3), and the per-skill emphasis↔growth correlations
// (Table 4). This package builds the closest synthetic equivalent: a
// latent-trait Likert response model whose parameters are calibrated by
// stochastic approximation until the *discretized* responses reproduce
// the published moments. The downstream analysis pipeline then consumes
// the synthetic sheets exactly as it would consume real ones.
//
// Model. For student i, skill e, wave w, category C ∈ {E(mphasis),
// G(rowth)}:
//
//	latent(i,e,w,C) = μ_C[e,w] + a_C·s_i(w) + b_C·t_ie(w)
//
// where s_i(w) is a per-student effect persistent across waves with
// cross-wave correlation γ², shared between categories with correlation
// ρ_stud, and t_ie(w) is a student×skill effect correlated between the
// two categories with a per-skill coefficient ρ_e (the knob that controls
// the Table-4 correlations). Each survey item adds independent noise and
// is rounded and clamped onto the 1–5 scale.
package respond

import (
	"fmt"
	"math"
	"math/rand"

	"pblparallel/internal/survey"
)

// WaveParams holds the latent-model parameters for one survey wave.
type WaveParams struct {
	// EmphMu and GrowMu are per-skill latent means.
	EmphMu map[string]float64
	GrowMu map[string]float64
	// EmphStudentSD / GrowStudentSD scale the persistent per-student
	// effect; they control the spread of per-student category averages.
	EmphStudentSD float64
	GrowStudentSD float64
	// SkillSDE / SkillSDG scale the student×skill effect.
	SkillSDE float64
	SkillSDG float64
	// Rho is the per-skill latent correlation between the emphasis and
	// growth student×skill effects.
	Rho map[string]float64
}

// clone deep-copies the wave parameters.
func (p WaveParams) clone() WaveParams {
	cp := p
	cp.EmphMu = copyMap(p.EmphMu)
	cp.GrowMu = copyMap(p.GrowMu)
	cp.Rho = copyMap(p.Rho)
	return cp
}

func copyMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Params holds the full generative model.
type Params struct {
	Waves [2]WaveParams
	// StudentCrossWave is γ: the share of the student effect carried
	// from wave 1 into wave 2 (cross-wave correlation γ²).
	StudentCrossWave float64
	// StudentRho correlates the emphasis and growth student effects.
	StudentRho float64
	// ItemSD is the per-item noise standard deviation before rounding.
	ItemSD float64
}

// clone deep-copies the parameters.
func (p Params) clone() Params {
	cp := p
	cp.Waves[0] = p.Waves[0].clone()
	cp.Waves[1] = p.Waves[1].clone()
	return cp
}

// Validate rejects out-of-range parameters.
func (p Params) Validate(ins *survey.Instrument) error {
	if p.StudentCrossWave < 0 || p.StudentCrossWave > 1 {
		return fmt.Errorf("respond: StudentCrossWave %v outside [0,1]", p.StudentCrossWave)
	}
	if math.Abs(p.StudentRho) > 1 {
		return fmt.Errorf("respond: StudentRho %v outside [-1,1]", p.StudentRho)
	}
	if p.ItemSD < 0 {
		return fmt.Errorf("respond: negative ItemSD %v", p.ItemSD)
	}
	for w, wp := range p.Waves {
		for _, e := range ins.Elements {
			for i, m := range [...]map[string]float64{wp.EmphMu, wp.GrowMu, wp.Rho} {
				if _, ok := m[e.Name]; !ok {
					return fmt.Errorf("respond: wave %d missing %s for %q", w, [...]string{"EmphMu", "GrowMu", "Rho"}[i], e.Name)
				}
			}
			if r := wp.Rho[e.Name]; math.Abs(r) > 0.999 {
				return fmt.Errorf("respond: wave %d rho for %q is %v", w, e.Name, r)
			}
		}
		for _, sd := range []float64{wp.EmphStudentSD, wp.GrowStudentSD, wp.SkillSDE, wp.SkillSDG} {
			if sd < 0 {
				return fmt.Errorf("respond: wave %d has negative SD", w)
			}
		}
	}
	return nil
}

// Generator produces survey sheets from a parameterized model.
type Generator struct {
	ins    *survey.Instrument
	params Params
}

// NewGenerator builds a generator after validating the parameters.
func NewGenerator(ins *survey.Instrument, params Params) (*Generator, error) {
	if err := params.Validate(ins); err != nil {
		return nil, err
	}
	return &Generator{ins: ins, params: params.clone()}, nil
}

// Params returns a copy of the generator's parameters.
func (g *Generator) Params() Params { return g.params.clone() }

// Generate synthesizes both survey waves for n students. Sheets are
// paired: index i in both waves is the same student, with the persistent
// component of their latent trait carried across waves.
func (g *Generator) Generate(n int, seed int64) (mid, end survey.WaveData, err error) {
	if n < 2 {
		return survey.WaveData{}, survey.WaveData{}, fmt.Errorf("respond: need n >= 2, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	mid = survey.WaveData{Wave: survey.MidSemester}
	end = survey.WaveData{Wave: survey.EndOfTerm}
	gamma := g.params.StudentCrossWave
	carry := math.Sqrt(1 - gamma*gamma)
	for i := 0; i < n; i++ {
		// Persistent student effects, correlated across categories.
		basE := rng.NormFloat64()
		basG := g.params.StudentRho*basE + math.Sqrt(1-g.params.StudentRho*g.params.StudentRho)*rng.NormFloat64()
		for w, wave := range []survey.Wave{survey.MidSemester, survey.EndOfTerm} {
			wp := g.params.Waves[w]
			sE, sG := basE, basG
			if w == 1 {
				// Blend in wave-2-specific variation.
				sE = gamma*basE + carry*rng.NormFloat64()
				sG = gamma*basG + carry*rng.NormFloat64()
			}
			sheet := survey.NewSheet(i, wave)
			for _, e := range g.ins.Elements {
				rho := wp.Rho[e.Name]
				z1 := rng.NormFloat64()
				z2 := rho*z1 + math.Sqrt(1-rho*rho)*rng.NormFloat64()
				latE := wp.EmphMu[e.Name] + wp.EmphStudentSD*sE + wp.SkillSDE*z1
				latG := wp.GrowMu[e.Name] + wp.GrowStudentSD*sG + wp.SkillSDG*z2
				sheet.Set(survey.ClassEmphasis, e.Name, g.itemize(rng, latE, len(e.Components)))
				sheet.Set(survey.PersonalGrowth, e.Name, g.itemize(rng, latG, len(e.Components)))
			}
			if w == 0 {
				mid.Sheets = append(mid.Sheets, sheet)
			} else {
				end.Sheets = append(end.Sheets, sheet)
			}
		}
	}
	return mid, end, nil
}

// itemize converts a latent element level into discretized item scores.
func (g *Generator) itemize(rng *rand.Rand, latent float64, nComponents int) survey.ElementResponse {
	r := survey.ElementResponse{
		Definition: likertize(latent + g.params.ItemSD*rng.NormFloat64()),
		Components: make([]survey.Likert, nComponents),
	}
	for i := range r.Components {
		r.Components[i] = likertize(latent + g.params.ItemSD*rng.NormFloat64())
	}
	return r
}

// likertize rounds a continuous value onto the 1–5 scale.
func likertize(v float64) survey.Likert {
	s := survey.Likert(math.Round(v))
	if s < 1 {
		s = 1
	}
	if s > 5 {
		s = 5
	}
	return s
}

package analysis

import (
	"fmt"

	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

// Robustness collects the checks a t-test-based survey study should
// report alongside its headline numbers: normality of the per-student
// category averages in each wave (Jarque-Bera) and confidence intervals
// for the paired wave differences.
type Robustness struct {
	// Normality maps "<category>/<wave>" to its test.
	Normality map[string]stats.JarqueBeraResult
	// DiffCI95 maps category name to the 95% CI of (wave1 - wave2)
	// per-student differences; an interval entirely below zero confirms
	// the direction of Tables 1-3.
	DiffCI95 map[string][2]float64
	// Wilcoxon maps category name to the non-parametric companion of
	// Table 1's paired t-test — the check that matters when the
	// Likert-derived averages fail a normality test.
	Wilcoxon map[string]stats.WilcoxonResult
}

// check adds one category's checks over its per-student averages in
// the mid-semester (w1) and end-of-term (w2) waves. The checks accompany
// Tables 1-3 and do not gate them: a statistic fails only where it is
// undefined on the data (Jarque-Bera and Wilcoxon need 8 values, or 8
// non-zero differences; Jarque-Bera needs variance), and such a check is
// left out of the report, so Run accepts every dataset Validate does.
func (r *Robustness) check(c survey.Category, w1, w2 []float64) {
	for i, xs := range [][]float64{w1, w2} {
		if jb, err := stats.JarqueBera(xs); err == nil {
			r.Normality[c.String()+"/"+survey.Waves[i].String()] = jb
		}
	}
	diffs := make([]float64, len(w1))
	for i := range w1 {
		diffs[i] = w1[i] - w2[i]
	}
	if lo, hi, err := stats.MeanCI(diffs, 0.95); err == nil {
		r.DiffCI95[c.String()] = [2]float64{lo, hi}
	}
	if wx, err := stats.WilcoxonSignedRank(w1, w2); err == nil {
		r.Wilcoxon[c.String()] = wx
	}
}

// SectionComparison checks the study's two-section design: both
// sections got the same instructor and methodology, so growth and
// emphasis should not differ by section. A significant difference would
// flag a confound.
type SectionComparison struct {
	// Welch t-tests of section 1 vs section 2 end-of-term category
	// averages.
	Emphasis stats.TTestResult
	Growth   stats.TTestResult
	N1, N2   int
}

// NoSectionEffect reports whether both comparisons are null at alpha.
func (s SectionComparison) NoSectionEffect(alpha float64) bool {
	return !s.Emphasis.Significant(alpha) && !s.Growth.Significant(alpha)
}

// compareSections splits the end-of-term category averages by section
// (section[i] is sheet i's, 1 or 2) and runs Welch t-tests between the
// sections. It returns nil when either section is empty: a one-section
// cohort, or a dataset that carries no sections, has nothing to compare.
func compareSections(section []int, emph, grow []float64) (*SectionComparison, error) {
	var e1, e2, g1, g2 []float64
	for i, sec := range section {
		if sec == 1 {
			e1, g1 = append(e1, emph[i]), append(g1, grow[i])
		} else {
			e2, g2 = append(e2, emph[i]), append(g2, grow[i])
		}
	}
	if len(e1) == 0 || len(e2) == 0 {
		return nil, nil
	}
	eT, err := stats.WelchTTest(e1, e2)
	if err != nil {
		return nil, fmt.Errorf("analysis: section emphasis: %w", err)
	}
	gT, err := stats.WelchTTest(g1, g2)
	if err != nil {
		return nil, fmt.Errorf("analysis: section growth: %w", err)
	}
	return &SectionComparison{Emphasis: eT, Growth: gT, N1: len(e1), N2: len(e2)}, nil
}

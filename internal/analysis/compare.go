package analysis

import (
	"fmt"
	"math"
	"sort"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/stats"
)

// MetricComparison is one paper-vs-measured line of the reproduction
// report.
type MetricComparison struct {
	Name     string
	Paper    float64
	Measured float64
}

// Delta is measured − paper.
func (m MetricComparison) Delta() float64 { return m.Measured - m.Paper }

// Within reports whether |delta| <= tol.
func (m MetricComparison) Within(tol float64) bool { return math.Abs(m.Delta()) <= tol }

// String renders the line for EXPERIMENTS.md-style output.
func (m MetricComparison) String() string {
	return fmt.Sprintf("%-55s paper=%8.4f measured=%8.4f delta=%+8.4f", m.Name, m.Paper, m.Measured, m.Delta())
}

// ShapeCheck is one qualitative claim of the paper checked against the
// reproduction (who wins, what is significant, what ranks first).
type ShapeCheck struct {
	Claim string
	Holds bool
}

// Comparison is the full paper-vs-measured report.
type Comparison struct {
	Metrics []MetricComparison
	Shape   []ShapeCheck
}

// FailedShape returns the claims that did not hold.
func (c Comparison) FailedShape() []ShapeCheck {
	var out []ShapeCheck
	for _, s := range c.Shape {
		if !s.Holds {
			out = append(out, s)
		}
	}
	return out
}

// Compare lines the reproduced report up against the paper's published
// values and evaluates the qualitative claims.
func Compare(rep *Report) Comparison {
	var c Comparison
	add := func(name string, paper, measured float64) {
		c.Metrics = append(c.Metrics, MetricComparison{Name: name, Paper: paper, Measured: measured})
	}
	claim := func(text string, holds bool) {
		c.Shape = append(c.Shape, ShapeCheck{Claim: text, Holds: holds})
	}

	// Table 1.
	add("Table1 emphasis mean diff", paperdata.Table1["Class Emphasis"].MeanDiff, rep.Table1.ClassEmphasis.MeanDiff)
	add("Table1 growth mean diff", paperdata.Table1["Personal Growth"].MeanDiff, rep.Table1.PersonalGrowth.MeanDiff)
	claim("emphasis paired t negative", rep.Table1.ClassEmphasis.T < 0)
	claim("growth paired t negative", rep.Table1.PersonalGrowth.T < 0)
	claim("emphasis difference significant (p<0.05)", rep.Table1.ClassEmphasis.Significant(0.05))
	claim("growth difference significant (p<0.05)", rep.Table1.PersonalGrowth.Significant(0.05))
	claim("growth |t| exceeds emphasis |t|",
		math.Abs(rep.Table1.PersonalGrowth.T) > math.Abs(rep.Table1.ClassEmphasis.T))

	// Tables 2 and 3.
	add("Table2 emphasis wave1 mean", paperdata.Table2.Mean1, rep.Table2.Mean1)
	add("Table2 emphasis wave2 mean", paperdata.Table2.Mean2, rep.Table2.Mean2)
	add("Table2 emphasis wave1 SD", paperdata.Table2.SD1, rep.Table2.SD1)
	add("Table2 emphasis wave2 SD", paperdata.Table2.SD2, rep.Table2.SD2)
	add("Table2 emphasis Cohen's d", paperdata.Table2.D, rep.Table2.D)
	add("Table3 growth wave1 mean", paperdata.Table3.Mean1, rep.Table3.Mean1)
	add("Table3 growth wave2 mean", paperdata.Table3.Mean2, rep.Table3.Mean2)
	add("Table3 growth wave1 SD", paperdata.Table3.SD1, rep.Table3.SD1)
	add("Table3 growth wave2 SD", paperdata.Table3.SD2, rep.Table3.SD2)
	add("Table3 growth Cohen's d", paperdata.Table3.D, rep.Table3.D)
	claim("emphasis effect medium-sized (d in [0.35,0.65])", rep.Table2.D >= 0.35 && rep.Table2.D <= 0.65)
	claim("growth effect large", rep.Table3.Band() == stats.EffectLarge)
	claim("growth d exceeds emphasis d", rep.Table3.D > rep.Table2.D)

	// Table 4.
	allSig := true
	allPos := true
	for _, skill := range paperdata.Skills {
		row := rep.Table4[skill]
		pub := paperdata.Table4[skill]
		add(fmt.Sprintf("Table4 %s r (first half)", skill), pub.FirstHalfR, row.FirstHalf.R)
		add(fmt.Sprintf("Table4 %s r (second half)", skill), pub.SecondHalfR, row.SecondHalf.R)
		if row.FirstHalf.P >= 0.001 || row.SecondHalf.P >= 0.001 {
			allSig = false
		}
		if row.FirstHalf.R <= 0 || row.SecondHalf.R <= 0 {
			allPos = false
		}
	}
	claim("all Table4 correlations positive", allPos)
	claim("all Table4 correlations p < 0.001", allSig)
	edm := rep.Table4[paperdata.EvaluationDecision]
	edmStrongest := true
	for _, skill := range paperdata.Skills {
		if skill == paperdata.EvaluationDecision {
			continue
		}
		row := rep.Table4[skill]
		if row.FirstHalf.R+row.SecondHalf.R > edm.FirstHalf.R+edm.SecondHalf.R {
			edmStrongest = false
		}
	}
	claim("EDM correlation strongest among skills", edmStrongest)
	tw := rep.Table4[paperdata.Teamwork]
	lowestFirst := true
	for _, skill := range paperdata.Skills {
		if skill == paperdata.Teamwork {
			continue
		}
		if rep.Table4[skill].FirstHalf.R < tw.FirstHalf.R {
			lowestFirst = false
		}
	}
	claim("Teamwork has the weakest first-half correlation", lowestFirst)

	// Tables 5 and 6, in table order so the shape checks print the same
	// way on every run.
	for _, tbl := range []struct {
		name   string
		ranked []stats.RankedItem
		pub    map[string]float64
	}{
		{"Table5 first half", rep.Table5.FirstHalf, paperdata.Table5FirstHalf},
		{"Table5 second half", rep.Table5.SecondHalf, paperdata.Table5SecondHalf},
		{"Table6 first half", rep.Table6.FirstHalf, paperdata.Table6FirstHalf},
		{"Table6 second half", rep.Table6.SecondHalf, paperdata.Table6SecondHalf},
	} {
		for _, item := range tbl.ranked {
			add(fmt.Sprintf("%s %s composite", tbl.name, item.Name), tbl.pub[item.Name], item.Score)
		}
		claim(tbl.name+" led by Teamwork", len(tbl.ranked) > 0 && tbl.ranked[0].Name == paperdata.Teamwork)
		rho, err := stats.SpearmanRho(tbl.pub, rankingToMap(tbl.ranked))
		claim(fmt.Sprintf("%s order close to paper (Spearman >= 0.8)", tbl.name), err == nil && rho >= 0.8)
	}

	// Discussion claims.
	var implGap GapRow
	for _, g := range rep.GapsSecondHalf {
		if g.Skill == paperdata.Implementation {
			implGap = g
		}
	}
	add("Implementation second-half gap", paperdata.ImplementationGapSecondHalf, implGap.Gap)
	claim("Implementation second-half gap below redesign threshold", !implGap.NeedsAttention)
	sort.Slice(c.Metrics, func(i, j int) bool { return c.Metrics[i].Name < c.Metrics[j].Name })
	return c
}

func rankingToMap(items []stats.RankedItem) map[string]float64 {
	out := make(map[string]float64, len(items))
	for _, it := range items {
		out[it.Name] = it.Score
	}
	return out
}

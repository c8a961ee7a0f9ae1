// Package analysis implements the paper's assessment pipeline: from two
// waves of survey sheets it derives the per-student variables and runs
// every analysis the evaluation section reports — the paired t-tests of
// Table 1, the Cohen's d computations of Tables 2 and 3, the per-skill
// Pearson correlations of Table 4, the composite-score rankings of
// Tables 5 and 6, and the emphasis-vs-growth gap reading the Discussion
// section performs on them — together with the robustness checks behind
// the t-tests and the two-section confound check, all in one pass (Run).
package analysis

import (
	"fmt"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

// Dataset is the collected study data: the instrument and both waves,
// paired by sheet index (sheet i in both waves is the same student).
type Dataset struct {
	Instrument *survey.Instrument
	Mid        survey.WaveData
	End        survey.WaveData
	// Section is each paired sheet's course section (1 or 2), by sheet
	// index; empty when the data carries no section split.
	Section []int
}

// Validate checks wave tags, sheet validity, pairing, and sections.
func (d Dataset) Validate() error {
	if d.Instrument == nil {
		return fmt.Errorf("analysis: nil instrument")
	}
	if d.Mid.Wave != survey.MidSemester || d.End.Wave != survey.EndOfTerm {
		return fmt.Errorf("analysis: wave tags %v/%v", d.Mid.Wave, d.End.Wave)
	}
	if len(d.Mid.Sheets) != len(d.End.Sheets) {
		return fmt.Errorf("analysis: unpaired waves (%d vs %d sheets)", len(d.Mid.Sheets), len(d.End.Sheets))
	}
	if len(d.Mid.Sheets) < 3 {
		return fmt.Errorf("analysis: need at least 3 paired sheets, have %d", len(d.Mid.Sheets))
	}
	for i := range d.Mid.Sheets {
		if d.Mid.Sheets[i].StudentID != d.End.Sheets[i].StudentID {
			return fmt.Errorf("analysis: sheet %d pairs students %d and %d",
				i, d.Mid.Sheets[i].StudentID, d.End.Sheets[i].StudentID)
		}
	}
	if len(d.Section) != 0 && len(d.Section) != len(d.Mid.Sheets) {
		return fmt.Errorf("analysis: %d sections for %d paired sheets", len(d.Section), len(d.Mid.Sheets))
	}
	for i, sec := range d.Section {
		if sec != 1 && sec != 2 {
			return fmt.Errorf("analysis: student %d in section %d", d.Mid.Sheets[i].StudentID, sec)
		}
	}
	if err := d.Mid.Validate(d.Instrument); err != nil {
		return err
	}
	return d.End.Validate(d.Instrument)
}

// Table1 holds the paired t-tests comparing the semester halves.
type Table1 struct {
	ClassEmphasis  stats.TTestResult
	PersonalGrowth stats.TTestResult
}

// Table4Row pairs the two halves' correlations for one skill.
type Table4Row struct {
	FirstHalf  stats.PearsonResult
	SecondHalf stats.PearsonResult
}

// RankingPair holds one table's (5 or 6) rankings for both halves.
type RankingPair struct {
	FirstHalf  []stats.RankedItem
	SecondHalf []stats.RankedItem
}

// GapRow is one skill's emphasis−growth composite gap in one half, the
// quantity the Discussion reads against the 0.2 redesign threshold.
type GapRow struct {
	Skill          string
	Emphasis       float64
	Growth         float64
	Gap            float64
	NeedsAttention bool // true when Gap > paperdata.GapActionThreshold
}

// Report bundles every reproduced table and the checks behind them.
type Report struct {
	N      int
	Table1 Table1
	Table2 stats.CohensDResult // class emphasis effect size
	Table3 stats.CohensDResult // personal growth effect size
	Table4 map[string]Table4Row
	Table5 RankingPair // course-emphasis composite ranking
	Table6 RankingPair // personal-growth composite ranking
	// Gaps per half, keyed like the tables.
	GapsFirstHalf  []GapRow
	GapsSecondHalf []GapRow
	// Robustness holds the normality, CI and Wilcoxon checks behind the
	// t-tests; a check undefined at this dataset's size is left out.
	Robustness Robustness
	// Sections verifies the two-section design introduced no confound;
	// nil when the dataset has fewer than two sections.
	Sections *SectionComparison
}

// Run validates the dataset once and runs the whole analysis over it.
func Run(d Dataset) (*Report, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{N: len(d.Mid.Sheets), Table4: make(map[string]Table4Row)}

	// The per-student category averages Tables 1-3, the robustness
	// checks and the section comparison all read.
	emph1 := d.Mid.CategoryAverages(survey.ClassEmphasis)
	emph2 := d.End.CategoryAverages(survey.ClassEmphasis)
	grow1 := d.Mid.CategoryAverages(survey.PersonalGrowth)
	grow2 := d.End.CategoryAverages(survey.PersonalGrowth)
	var err error
	if rep.Table1.ClassEmphasis, err = stats.PairedTTest(emph1, emph2); err != nil {
		return nil, fmt.Errorf("analysis: table 1 emphasis: %w", err)
	}
	if rep.Table1.PersonalGrowth, err = stats.PairedTTest(grow1, grow2); err != nil {
		return nil, fmt.Errorf("analysis: table 1 growth: %w", err)
	}

	// Tables 2 and 3: Cohen's d with the paper's pooled-SD convention.
	if rep.Table2, err = stats.CohensD(emph1, emph2); err != nil {
		return nil, fmt.Errorf("analysis: table 2: %w", err)
	}
	if rep.Table3, err = stats.CohensD(grow1, grow2); err != nil {
		return nil, fmt.Errorf("analysis: table 3: %w", err)
	}

	rep.Robustness = Robustness{
		Normality: make(map[string]stats.JarqueBeraResult),
		DiffCI95:  make(map[string][2]float64),
		Wilcoxon:  make(map[string]stats.WilcoxonResult),
	}
	rep.Robustness.check(survey.ClassEmphasis, emph1, emph2)
	rep.Robustness.check(survey.PersonalGrowth, grow1, grow2)
	if rep.Sections, err = compareSections(d.Section, emph2, grow2); err != nil {
		return nil, err
	}

	// Table 4: per-skill emphasis↔growth correlations in each half.
	for _, e := range d.Instrument.Elements {
		var row Table4Row
		for w, wd := range []survey.WaveData{d.Mid, d.End} {
			es, err := wd.SkillAverages(survey.ClassEmphasis, e.Name)
			if err != nil {
				return nil, err
			}
			gs, err := wd.SkillAverages(survey.PersonalGrowth, e.Name)
			if err != nil {
				return nil, err
			}
			pr, err := stats.Pearson(es, gs)
			if err != nil {
				return nil, fmt.Errorf("analysis: table 4 %s wave %d: %w", e.Name, w, err)
			}
			if w == 0 {
				row.FirstHalf = pr
			} else {
				row.SecondHalf = pr
			}
		}
		rep.Table4[e.Name] = row
	}

	// Tables 5 and 6: composite rankings.
	e1, err := d.Mid.CompositeTable(d.Instrument, survey.ClassEmphasis)
	if err != nil {
		return nil, err
	}
	e2, err := d.End.CompositeTable(d.Instrument, survey.ClassEmphasis)
	if err != nil {
		return nil, err
	}
	g1, err := d.Mid.CompositeTable(d.Instrument, survey.PersonalGrowth)
	if err != nil {
		return nil, err
	}
	g2, err := d.End.CompositeTable(d.Instrument, survey.PersonalGrowth)
	if err != nil {
		return nil, err
	}
	rep.Table5 = RankingPair{FirstHalf: stats.Rank(e1), SecondHalf: stats.Rank(e2)}
	rep.Table6 = RankingPair{FirstHalf: stats.Rank(g1), SecondHalf: stats.Rank(g2)}
	rep.GapsFirstHalf = gaps(d.Instrument, e1, g1)
	rep.GapsSecondHalf = gaps(d.Instrument, e2, g2)
	return rep, nil
}

// gaps computes emphasis−growth per skill, in instrument order.
func gaps(ins *survey.Instrument, emphasis, growth map[string]float64) []GapRow {
	out := make([]GapRow, 0, len(ins.Elements))
	for _, e := range ins.Elements {
		g := GapRow{
			Skill:    e.Name,
			Emphasis: emphasis[e.Name],
			Growth:   growth[e.Name],
		}
		g.Gap = g.Emphasis - g.Growth
		g.NeedsAttention = g.Gap > paperdata.GapActionThreshold
		out = append(out, g)
	}
	return out
}

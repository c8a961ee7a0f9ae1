package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pblparallel/internal/paperdata"
)

var (
	outcomeOnce sync.Once
	outcome     *Outcome
	outcomeErr  error
)

// paperOutcome runs the full paper study once per test process.
func paperOutcome(t testing.TB) *Outcome {
	t.Helper()
	outcomeOnce.Do(func() {
		outcome, outcomeErr = NewStudy().Run(context.Background())
	})
	if outcomeErr != nil {
		t.Fatal(outcomeErr)
	}
	return outcome
}

func TestRunEndToEnd(t *testing.T) {
	o := paperOutcome(t)
	if len(o.Cohort.Students) != paperdata.NStudents {
		t.Fatalf("cohort %d", len(o.Cohort.Students))
	}
	if len(o.Formation.Teams) != paperdata.NTeams {
		t.Fatalf("%d teams", len(o.Formation.Teams))
	}
	if o.Report.N != paperdata.NStudents {
		t.Fatalf("analysis N = %d", o.Report.N)
	}
	if len(o.ActivityByTeam) != paperdata.NTeams {
		t.Fatalf("%d activity logs", len(o.ActivityByTeam))
	}
	for id, log := range o.ActivityByTeam {
		if len(log.Events) == 0 {
			t.Fatalf("team %d has no activity", id)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Table2.Mean1 != b.Report.Table2.Mean1 ||
		a.Report.Table3.D != b.Report.Table3.D {
		t.Fatal("same config produced different studies")
	}
	if a.Balance.AbilitySpread != b.Balance.AbilitySpread {
		t.Fatal("team formation nondeterministic")
	}
}

func TestHeadlineFindingsAtPaperN(t *testing.T) {
	o := paperOutcome(t)
	rep := o.Report
	// The three hypotheses' headline outcomes.
	if !rep.Table1.ClassEmphasis.Significant(0.05) {
		t.Errorf("H1: emphasis difference not significant (p=%v)", rep.Table1.ClassEmphasis.P)
	}
	if !rep.Table1.PersonalGrowth.Significant(0.05) {
		t.Errorf("H2: growth difference not significant (p=%v)", rep.Table1.PersonalGrowth.P)
	}
	if rep.Table3.D <= rep.Table2.D {
		t.Errorf("growth d %.2f not above emphasis d %.2f", rep.Table3.D, rep.Table2.D)
	}
	for skill, row := range rep.Table4 {
		if row.FirstHalf.R <= 0 || row.SecondHalf.R <= 0 {
			t.Errorf("H3: %s correlation not positive", skill)
		}
	}
	if rep.Table5.FirstHalf[0].Name != paperdata.Teamwork ||
		rep.Table6.SecondHalf[0].Name != paperdata.Teamwork {
		t.Error("Teamwork not at the top of the rankings")
	}
}

func TestShapeChecksMostlyHoldAtPaperN(t *testing.T) {
	// At n=124 sampling error can flip a borderline claim (the paper's
	// own p-values wobble at this n); require the overwhelming majority
	// to hold and none of the headline ones to fail.
	o := paperOutcome(t)
	failed := o.Comparison.FailedShape()
	if len(failed) > 2 {
		for _, f := range failed {
			t.Errorf("failed: %s", f.Claim)
		}
	}
	for _, f := range failed {
		if strings.Contains(f.Claim, "growth") {
			t.Errorf("headline claim failed: %s", f.Claim)
		}
	}
}

func TestUncalibratedAblationRuns(t *testing.T) {
	cfg := PaperStudy()
	cfg.Calibrate = false
	o, err := NewStudy(WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if o.Report.N != paperdata.NStudents {
		t.Fatalf("N = %d", o.Report.N)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := PaperStudy()
	cfg.Cohort.NStudents = 0
	if _, err := NewStudy(WithConfig(cfg)).Run(context.Background()); err == nil {
		t.Fatal("bad cohort accepted")
	}
	cfg = PaperStudy()
	cfg.Teams.MinSize = 0
	if _, err := NewStudy(WithConfig(cfg)).Run(context.Background()); err == nil {
		t.Fatal("bad team config accepted")
	}
}

func TestRobustnessAndSections(t *testing.T) {
	o := paperOutcome(t)
	robust := o.Report.Robustness
	if len(robust.Normality) != 4 || len(robust.DiffCI95) != 2 {
		t.Fatalf("robustness incomplete: %+v", robust)
	}
	// The growth CI must confirm Table 1's direction (wave1 < wave2).
	ci := robust.DiffCI95["Personal Growth"]
	if ci[1] >= 0 {
		t.Fatalf("growth diff CI %v not below zero", ci)
	}
	// Same instructor, same methodology: no section confound.
	sec := o.Report.Sections
	if sec == nil || sec.N1 != 62 || sec.N2 != 62 {
		t.Fatalf("sections %+v, want 62/62", sec)
	}
	if !sec.NoSectionEffect(0.01) {
		t.Fatalf("section confound: emphasis p=%v growth p=%v",
			sec.Emphasis.P, sec.Growth.P)
	}
}

// TestOneSectionCohort: a one-section cohort is a valid configuration;
// with nothing to compare the study still succeeds and its report says
// so.
func TestOneSectionCohort(t *testing.T) {
	cfg := PaperStudy()
	cfg.Cohort.Sections = 1
	o, err := NewStudy(WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if o.Report.Sections != nil {
		t.Fatalf("one section compared with itself: %+v", o.Report.Sections)
	}
	var b strings.Builder
	if err := o.Render(&b); err != nil {
		t.Fatal(err)
	}
	if want := "section effect: one section, nothing to compare\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("report lacks %q", want)
	}
}

func TestRenderFullReport(t *testing.T) {
	o := paperOutcome(t)
	var b strings.Builder
	if err := o.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Fig. 1", "Element: Teamwork", "Table 1.", "Table 6.",
		"Paper vs measured", "Shape checks",
		"cohort: 124 students in 26 teams",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

package pblparallel

// Cross-package integration tests: these exercise the seams between the
// study engine and the technical substrate that no single package's
// tests cover — the course module's program names resolving to real
// implementations, the full semester flow from team activity through
// peer ratings to course grades, and the study/what-if coherence.

import (
	"context"
	"strings"
	"testing"

	"pblparallel/internal/analysis"
	"pblparallel/internal/core"
	"pblparallel/internal/drugdesign"
	"pblparallel/internal/engine"
	"pblparallel/internal/omp"
	"pblparallel/internal/paperdata"
	"pblparallel/internal/patternlets"
	"pblparallel/internal/pbl"
	"pblparallel/internal/pisim"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
	"pblparallel/internal/teamwork"
	"pblparallel/internal/whatif"
)

// TestModuleProgramsResolve checks every program name the course module
// assigns actually exists in the substrate: patternlets by name,
// drug-design variants by suffix, and the MPI programs of the Spring
// 2019 revision by convention.
func TestModuleProgramsResolve(t *testing.T) {
	known := func(name string) bool {
		if _, err := patternlets.Lookup(name); err == nil {
			return true
		}
		switch name {
		case "drugdesign-seq", "drugdesign-omp", "drugdesign-threads", "drugdesign-mpi":
			return true // implemented in internal/drugdesign
		case "mpi-hello", "mpi-ring", "mpi-trapezoid", "mpi-oddevensort":
			return true // implemented in internal/mpipatterns
		}
		return false
	}
	for _, module := range []*pbl.Module{pbl.NewPaperModule(), pbl.NewSpring2019Module()} {
		for _, a := range module.Assignments {
			for _, prog := range a.Programs {
				if !known(prog) {
					t.Errorf("assignment %d program %q has no implementation", a.Number, prog)
				}
			}
		}
	}
}

// TestSemesterGradeFlow drives the full course pipeline for every team
// of the paper study: activity → peer ratings → cooperation → module
// scores → course grades.
func TestSemesterGradeFlow(t *testing.T) {
	o, err := core.NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	policy := pbl.PaperPolicy()
	assessment, err := pbl.SimulateAssessment(o.Cohort, pbl.DefaultAssessmentModel(), 99)
	if err != nil {
		t.Fatal(err)
	}
	moduleScores := map[int][]float64{}
	graded := 0
	for _, tm := range o.Formation.Teams {
		log := o.ActivityByTeam[tm.ID]
		// Derive each assignment's cooperation from peer ratings.
		grades := make([]pbl.AssignmentGrade, paperdata.NAssignments)
		for a := 0; a < paperdata.NAssignments; a++ {
			forms, err := teamwork.RatingsFromActivity(tm, log, a+1)
			if err != nil {
				t.Fatal(err)
			}
			avgs, err := teamwork.AggregateRatings(tm, forms)
			if err != nil {
				t.Fatal(err)
			}
			coop := map[int]pbl.Cooperation{}
			for id, avg := range avgs {
				coop[id] = teamwork.CooperationFromRating(avg)
			}
			grades[a] = pbl.AssignmentGrade{Assignment: a + 1, TeamScore: 88, Cooperation: coop}
		}
		for _, m := range tm.Members {
			scores, err := pbl.MemberScores(policy, grades, m.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			moduleScores[m.ID] = scores
			graded++
		}
	}
	if graded != paperdata.NStudents {
		t.Fatalf("graded %d of %d students", graded, paperdata.NStudents)
	}
	final, err := pbl.FinalCourseGrades(policy, moduleScores, assessment)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != paperdata.NStudents {
		t.Fatalf("%d final grades", len(final))
	}
	vals := make([]float64, 0, len(final))
	for _, g := range final {
		if g < 0 || g > 100 {
			t.Fatalf("grade %v out of range", g)
		}
		vals = append(vals, g)
	}
	d, err := stats.Describe(vals)
	if err != nil {
		t.Fatal(err)
	}
	// A sane class distribution: mean in the B range, nonzero spread.
	if d.Mean < 60 || d.Mean > 95 || d.StdDev == 0 {
		t.Fatalf("class grades %v", d)
	}
}

// TestStudyAndProjectionCoherence verifies the what-if projection's
// baseline agrees in shape with the study's own Table 4 Teamwork row.
func TestStudyAndProjectionCoherence(t *testing.T) {
	o, err := core.NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	proj, err := whatif.Project(context.Background(), engine.New(), whatif.TeamworkReinforcement(), 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	studyRow := o.Report.Table4[paperdata.Teamwork]
	// Both should put baseline Teamwork in Guilford's low/moderate
	// bands, well below the projected value.
	if studyRow.FirstHalf.R > 0.6 {
		t.Fatalf("study teamwork r %v unexpectedly high", studyRow.FirstHalf.R)
	}
	if proj.Projected.FirstHalf.R <= proj.Baseline.FirstHalf.R {
		t.Fatal("projection did not improve over baseline")
	}
}

// TestVirtualAndNativeDrugDesignAgreeOnOrdering ties the two execution
// modes together: the virtual-time winner (omp) also matches the native
// results bit-for-bit on the answer.
func TestVirtualAndNativeDrugDesignAgreeOnOrdering(t *testing.T) {
	p := drugdesign.PaperProblem()
	m, err := pisim.NewMachine(pisim.PaperPi3B())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drugdesign.TimingTable(m, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	fastest, err := drugdesign.Fastest(rows)
	if err != nil {
		t.Fatal(err)
	}
	if fastest.Approach != drugdesign.OMP {
		t.Fatalf("virtual winner %s", fastest.Approach)
	}
	seq, err := drugdesign.RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	o, err := drugdesign.RunOMP(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(o) {
		t.Fatal("native omp result disagrees with sequential")
	}
}

// TestScalingCurveMatchesAmdahlEstimate cross-checks the pisim scaling
// curve against the patternlets Amdahl helper for a mostly-parallel
// workload.
func TestScalingCurveMatchesAmdahlEstimate(t *testing.T) {
	cfg := pisim.PaperPi3B()
	cfg.MemoryContention = 0
	cfg.DispatchOverhead = 0
	cfg.BarrierCost = 0
	costs := pisim.UniformCosts(4096, 1000)
	points, err := pisim.StrongScaling(cfg, costs, omp.Static{}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := patternlets.SpeedupEstimate(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Speedup; got < 0.95*ideal || got > ideal*1.01 {
		t.Fatalf("overhead-free uniform speedup %v, Amdahl ideal %v", got, ideal)
	}
}

// TestCSVRoundTripPreservesAnalysis exports the study's survey data to
// CSV, re-imports it, and verifies the entire analysis reproduces
// identically — the interchange path for external tools.
func TestCSVRoundTripPreservesAnalysis(t *testing.T) {
	o, err := core.NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	roundtrip := func(wd survey.WaveData) survey.WaveData {
		var b strings.Builder
		if err := survey.WriteCSV(&b, o.Instrument, wd); err != nil {
			t.Fatal(err)
		}
		back, err := survey.ReadCSV(strings.NewReader(b.String()), o.Instrument, wd.Wave)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	ds := analysis.Dataset{
		Instrument: o.Instrument,
		Mid:        roundtrip(o.Dataset.Mid),
		End:        roundtrip(o.Dataset.End),
	}
	rep, err := analysis.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table2.D != o.Report.Table2.D || rep.Table3.D != o.Report.Table3.D {
		t.Fatalf("effect sizes changed across CSV: %v/%v vs %v/%v",
			rep.Table2.D, rep.Table3.D, o.Report.Table2.D, o.Report.Table3.D)
	}
	if rep.Table1.PersonalGrowth.T != o.Report.Table1.PersonalGrowth.T {
		t.Fatal("t statistic changed across CSV")
	}
	for skill, row := range rep.Table4 {
		if row.FirstHalf.R != o.Report.Table4[skill].FirstHalf.R {
			t.Fatalf("%s correlation changed across CSV", skill)
		}
	}
}

// TestInstrumentReliability confirms the synthesized responses have the
// internal consistency real Beyerlein administrations report.
func TestInstrumentReliability(t *testing.T) {
	o, err := core.NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	alphas, err := analysis.Reliability(o.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(alphas) != 28 {
		t.Fatalf("%d alphas", len(alphas))
	}
	low := 0
	for key, a := range alphas {
		if a < 0.55 {
			t.Logf("low alpha %s = %.3f", key, a)
			low++
		}
	}
	if low > 2 {
		t.Fatalf("%d of %d scales below alpha 0.55", low, len(alphas))
	}
}

// TestRenderedStudyMentionsEverySkill is an end-to-end smoke test of
// the full report text.
func TestRenderedStudyMentionsEverySkill(t *testing.T) {
	o, err := core.NewStudy().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := o.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, skill := range paperdata.Skills {
		if !strings.Contains(out, skill) {
			t.Errorf("report never mentions %q", skill)
		}
	}
	for _, section := range []string{"Robustness", "no section confound"} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing %q", section)
		}
	}
}

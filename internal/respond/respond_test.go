package respond

import (
	"math"
	"testing"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

func calibrated(t testing.TB) (*survey.Instrument, Params) {
	t.Helper()
	ins := survey.NewBeyerlein()
	p, err := PaperParams(ins)
	if err != nil {
		t.Fatal(err)
	}
	return ins, p
}

func TestGenerateValidSheets(t *testing.T) {
	ins, p := calibrated(t)
	g, err := NewGenerator(ins, p)
	if err != nil {
		t.Fatal(err)
	}
	mid, end, err := g.Generate(124, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Sheets) != 124 || len(end.Sheets) != 124 {
		t.Fatalf("sheet counts %d/%d", len(mid.Sheets), len(end.Sheets))
	}
	if err := mid.Validate(ins); err != nil {
		t.Fatal(err)
	}
	if err := end.Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePaired(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	mid, end, err := g.Generate(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mid.Sheets {
		if mid.Sheets[i].StudentID != end.Sheets[i].StudentID {
			t.Fatalf("index %d pairs students %d and %d", i, mid.Sheets[i].StudentID, end.Sheets[i].StudentID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	m1, e1, _ := g.Generate(30, 5)
	m2, e2, _ := g.Generate(30, 5)
	for i := range m1.Sheets {
		if m1.Sheets[i].CategoryAverage(survey.ClassEmphasis) != m2.Sheets[i].CategoryAverage(survey.ClassEmphasis) {
			t.Fatal("mid wave nondeterministic")
		}
		if e1.Sheets[i].CategoryAverage(survey.PersonalGrowth) != e2.Sheets[i].CategoryAverage(survey.PersonalGrowth) {
			t.Fatal("end wave nondeterministic")
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	m1, _, _ := g.Generate(30, 5)
	m2, _, _ := g.Generate(30, 6)
	same := true
	for i := range m1.Sheets {
		if m1.Sheets[i].CategoryAverage(survey.ClassEmphasis) != m2.Sheets[i].CategoryAverage(survey.ClassEmphasis) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateTooFew(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	if _, _, err := g.Generate(1, 1); err == nil {
		t.Fatal("expected error for n=1")
	}
}

func TestParamsValidate(t *testing.T) {
	ins, p := calibrated(t)
	bad := p.clone()
	bad.StudentCrossWave = 1.5
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected gamma error")
	}
	bad = p.clone()
	bad.ItemSD = -1
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected ItemSD error")
	}
	bad = p.clone()
	delete(bad.Waves[0].EmphMu, paperdata.Teamwork)
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected missing-mu error")
	}
	bad = p.clone()
	bad.Waves[1].Rho[paperdata.Teamwork] = 1.0
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected rho error")
	}
	bad = p.clone()
	bad.StudentRho = -2
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected StudentRho error")
	}
	bad = p.clone()
	bad.Waves[0].SkillSDE = -0.1
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected SD error")
	}
	if _, err := NewGenerator(ins, bad); err == nil {
		t.Fatal("NewGenerator must validate")
	}
}

func TestParamsCloneIsDeep(t *testing.T) {
	_, p := calibrated(t)
	cp := p.clone()
	cp.Waves[0].EmphMu[paperdata.Teamwork] = -99
	if p.Waves[0].EmphMu[paperdata.Teamwork] == -99 {
		t.Fatal("clone shares maps")
	}
}

func TestGeneratorParamsAccessorCopies(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	got := g.Params()
	got.Waves[0].EmphMu[paperdata.Teamwork] = -99
	if g.Params().Waves[0].EmphMu[paperdata.Teamwork] == -99 {
		t.Fatal("Params() exposes internals")
	}
}

func TestLikertize(t *testing.T) {
	cases := []struct {
		in   float64
		want survey.Likert
	}{
		{-3, 1}, {0.4, 1}, {1.4, 1}, {1.6, 2}, {3.5, 4}, {4.4, 4}, {4.6, 5}, {9, 5},
	}
	for _, c := range cases {
		if got := likertize(c.in); got != c.want {
			t.Fatalf("likertize(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPaperTargetsValidate(t *testing.T) {
	ins := survey.NewBeyerlein()
	if err := PaperTargets().Validate(ins); err != nil {
		t.Fatal(err)
	}
	bad := PaperTargets()
	bad.EmphasisSD[0] = 0
	if err := bad.Validate(ins); err == nil {
		t.Fatal("expected SD target error")
	}
	bad2 := PaperTargets()
	bad2.SkillR[1] = map[string]float64{}
	if err := bad2.Validate(ins); err == nil {
		t.Fatal("expected missing-skill error")
	}
}

func TestCalibrateRejectsBadTargets(t *testing.T) {
	ins := survey.NewBeyerlein()
	bad := PaperTargets()
	bad.GrowthComposite[0] = map[string]float64{}
	if _, err := Calibrate(ins, bad, CalibrateOptions{Iterations: 1, SampleSize: 50}); err == nil {
		t.Fatal("expected target validation error")
	}
}

func TestAdjustSDBounds(t *testing.T) {
	if got := adjustSD(0.02, 0.0001, 1.0, 1); got != 0.01 {
		t.Fatalf("lower clamp: %v", got)
	}
	if got := adjustSD(1.9, 10, 0.1, 1); got != 2 {
		t.Fatalf("upper clamp: %v", got)
	}
	if got := adjustSD(0.5, 0.5, 0, 1); got != 0.5 {
		t.Fatalf("zero-measured guard: %v", got)
	}
	// Moves toward target.
	if got := adjustSD(0.5, 1.0, 0.5, 1); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("full step: %v", got)
	}
}

func TestClampRho(t *testing.T) {
	if clampRho(1.5) != 0.99 || clampRho(-1.5) != -0.99 || clampRho(0.5) != 0.5 {
		t.Fatal("clampRho wrong")
	}
}

// TestPaperCohortShape checks the n=124 production sample preserves the
// paper's qualitative structure despite sampling noise.
func TestPaperCohortShape(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	mid, end, err := g.Generate(paperdata.NStudents, 20190815)
	if err != nil {
		t.Fatal(err)
	}
	// Wave 2 category means exceed wave 1 for both categories.
	for _, c := range survey.Categories {
		m1 := stats.MustMean(mid.CategoryAverages(c))
		m2 := stats.MustMean(end.CategoryAverages(c))
		if m2 <= m1 {
			t.Errorf("%v: wave2 mean %.3f not above wave1 %.3f", c, m2, m1)
		}
	}
	// Teamwork tops both growth rankings.
	for _, wd := range []survey.WaveData{mid, end} {
		tbl, err := wd.CompositeTable(ins, survey.PersonalGrowth)
		if err != nil {
			t.Fatal(err)
		}
		ranked := stats.Rank(tbl)
		if ranked[0].Name != paperdata.Teamwork {
			t.Errorf("%v growth leader = %q, want Teamwork", wd.Wave, ranked[0].Name)
		}
	}
	// Paired growth t-test is significant and negative (wave1 - wave2).
	res, err := stats.PairedTTest(mid.CategoryAverages(survey.PersonalGrowth), end.CategoryAverages(survey.PersonalGrowth))
	if err != nil {
		t.Fatal(err)
	}
	if res.T >= 0 || res.P >= 0.01 {
		t.Errorf("growth paired t = %.2f p = %.4f; want negative and significant", res.T, res.P)
	}
}

// TestCrossWavePairing verifies the persistent student effect produces
// positively correlated category averages across waves (the property that
// makes the paired t-test the right analysis).
func TestCrossWavePairing(t *testing.T) {
	ins, p := calibrated(t)
	g, _ := NewGenerator(ins, p)
	mid, end, err := g.Generate(2000, 77)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Pearson(mid.CategoryAverages(survey.PersonalGrowth), end.CategoryAverages(survey.PersonalGrowth))
	if err != nil {
		t.Fatal(err)
	}
	if r.R < 0.3 {
		t.Fatalf("cross-wave r = %.3f; student effect not persistent", r.R)
	}
}

func TestMeasureRejectsEmpty(t *testing.T) {
	ins := survey.NewBeyerlein()
	if _, err := Measure(ins, survey.WaveData{Wave: survey.MidSemester}, survey.WaveData{Wave: survey.EndOfTerm}); err == nil {
		t.Fatal("expected error for empty waves")
	}
}

func TestCalibrationUncalibratedIsWorse(t *testing.T) {
	// Ablation guard: a generator using the raw starting parameters
	// (before any calibration iterations) lands farther from the
	// targets than the calibrated one, on total absolute error of the
	// composite means.
	ins := survey.NewBeyerlein()
	targets := PaperTargets()
	raw := startingParams(ins, targets)
	cal, err := PaperParams(ins)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(p Params) float64 {
		g, err := NewGenerator(ins, p)
		if err != nil {
			t.Fatal(err)
		}
		mid, end, err := g.Generate(3000, 4242)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Measure(ins, mid, end)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for w := 0; w < 2; w++ {
			for skill, want := range targets.EmphasisComposite[w] {
				total += math.Abs(m.EmphasisComposite[w][skill] - want)
			}
			for skill, want := range targets.GrowthComposite[w] {
				total += math.Abs(m.GrowthComposite[w][skill] - want)
			}
		}
		return total
	}
	if eRaw, eCal := errOf(raw), errOf(cal); eCal >= eRaw {
		t.Fatalf("calibrated error %.3f not below uncalibrated %.3f", eCal, eRaw)
	}
}

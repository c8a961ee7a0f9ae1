package analysis

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pblparallel/internal/paperdata"
	"pblparallel/internal/respond"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
)

var (
	dsOnce sync.Once
	dsBig  Dataset // 3000 students: sampling error small enough for metric checks
	dsRef  Dataset // 124 students: the paper's n
	dsErr  error
)

// sharedDatasets builds calibrated datasets once for the whole package.
func sharedDatasets(t testing.TB) (big, paperN Dataset) {
	t.Helper()
	dsOnce.Do(func() {
		ins := survey.NewBeyerlein()
		p, err := respond.PaperParams(ins)
		if err != nil {
			dsErr = err
			return
		}
		g, err := respond.NewGenerator(ins, p)
		if err != nil {
			dsErr = err
			return
		}
		mid, end, err := g.Generate(3000, 101)
		if err != nil {
			dsErr = err
			return
		}
		dsBig = Dataset{Instrument: ins, Mid: mid, End: end}
		mid124, end124, err := g.Generate(paperdata.NStudents, 20190815)
		if err != nil {
			dsErr = err
			return
		}
		dsRef = Dataset{Instrument: ins, Mid: mid124, End: end124}
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsBig, dsRef
}

func TestDatasetValidate(t *testing.T) {
	big, _ := sharedDatasets(t)
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := big
	bad.Instrument = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected nil-instrument error")
	}
	bad = big
	bad.Mid = big.End
	if err := bad.Validate(); err == nil {
		t.Fatal("expected wave-tag error")
	}
	bad = big
	bad.End = survey.WaveData{Wave: survey.EndOfTerm, Sheets: big.End.Sheets[:len(big.End.Sheets)-1]}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected unpaired error")
	}
	bad = big
	bad.Mid = survey.WaveData{Wave: survey.MidSemester, Sheets: big.Mid.Sheets[:2]}
	bad.End = survey.WaveData{Wave: survey.EndOfTerm, Sheets: big.End.Sheets[:2]}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected too-few error")
	}
}

func TestDatasetValidatePairing(t *testing.T) {
	big, _ := sharedDatasets(t)
	// Swap two mid sheets to break ID pairing.
	sheets := append([]*survey.Sheet(nil), big.Mid.Sheets...)
	sheets[0], sheets[1] = sheets[1], sheets[0]
	bad := Dataset{Instrument: big.Instrument,
		Mid: survey.WaveData{Wave: survey.MidSemester, Sheets: sheets},
		End: big.End}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected pairing error")
	}
}

func TestRunReproducesHeadlineNumbers(t *testing.T) {
	big, _ := sharedDatasets(t)
	rep, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 mean differences within 0.03 of the paper.
	if math.Abs(rep.Table1.ClassEmphasis.MeanDiff-(-0.10)) > 0.03 {
		t.Errorf("emphasis diff = %.3f", rep.Table1.ClassEmphasis.MeanDiff)
	}
	if math.Abs(rep.Table1.PersonalGrowth.MeanDiff-(-0.20)) > 0.03 {
		t.Errorf("growth diff = %.3f", rep.Table1.PersonalGrowth.MeanDiff)
	}
	// Tables 2 and 3 summary stats.
	if math.Abs(rep.Table2.Mean1-paperdata.Table2.Mean1) > 0.03 ||
		math.Abs(rep.Table2.Mean2-paperdata.Table2.Mean2) > 0.03 {
		t.Errorf("table2 means %.3f/%.3f", rep.Table2.Mean1, rep.Table2.Mean2)
	}
	if math.Abs(rep.Table3.D-paperdata.Table3.D) > 0.25 {
		t.Errorf("growth d = %.3f, want ≈%.2f", rep.Table3.D, paperdata.Table3.D)
	}
	if rep.Table3.D <= rep.Table2.D {
		t.Errorf("growth d %.3f not above emphasis d %.3f", rep.Table3.D, rep.Table2.D)
	}
	// Table 4 correlations within 0.1 at n=3000.
	for skill, pub := range paperdata.Table4 {
		row := rep.Table4[skill]
		if math.Abs(row.FirstHalf.R-pub.FirstHalfR) > 0.1 {
			t.Errorf("%s first-half r = %.3f, want %.2f", skill, row.FirstHalf.R, pub.FirstHalfR)
		}
		if math.Abs(row.SecondHalf.R-pub.SecondHalfR) > 0.1 {
			t.Errorf("%s second-half r = %.3f, want %.2f", skill, row.SecondHalf.R, pub.SecondHalfR)
		}
		if row.FirstHalf.P >= 0.001 || row.SecondHalf.P >= 0.001 {
			t.Errorf("%s not significant at p<0.001", skill)
		}
	}
	// Tables 5/6: Teamwork first everywhere.
	for name, ranked := range map[string][]stats.RankedItem{
		"t5h1": rep.Table5.FirstHalf, "t5h2": rep.Table5.SecondHalf,
		"t6h1": rep.Table6.FirstHalf, "t6h2": rep.Table6.SecondHalf,
	} {
		if ranked[0].Name != paperdata.Teamwork {
			t.Errorf("%s leader = %s", name, ranked[0].Name)
		}
		if len(ranked) != 7 {
			t.Errorf("%s has %d rows", name, len(ranked))
		}
	}
}

func TestRunAtPaperN(t *testing.T) {
	_, ref := sharedDatasets(t)
	rep, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != paperdata.NStudents {
		t.Fatalf("N = %d", rep.N)
	}
	// At n=124 only shape is guaranteed.
	if !rep.Table1.PersonalGrowth.Significant(0.05) {
		t.Error("growth not significant at paper n")
	}
	if rep.Table1.PersonalGrowth.T >= 0 {
		t.Error("growth t not negative")
	}
	if rep.Table3.D <= 0.4 {
		t.Errorf("growth d = %.3f, want substantial", rep.Table3.D)
	}
}

func TestGapAnalysis(t *testing.T) {
	big, _ := sharedDatasets(t)
	rep, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GapsFirstHalf) != 7 || len(rep.GapsSecondHalf) != 7 {
		t.Fatalf("gap rows %d/%d", len(rep.GapsFirstHalf), len(rep.GapsSecondHalf))
	}
	for i, g := range rep.GapsSecondHalf {
		if g.Skill != big.Instrument.Elements[i].Name {
			t.Fatalf("gap order broken at %d", i)
		}
		if math.Abs(g.Gap-(g.Emphasis-g.Growth)) > 1e-12 {
			t.Fatalf("gap arithmetic wrong for %s", g.Skill)
		}
		if g.NeedsAttention != (g.Gap > paperdata.GapActionThreshold) {
			t.Fatalf("threshold flag wrong for %s", g.Skill)
		}
	}
	// The Discussion's observation: Implementation's second-half gap is
	// small (paper: 0.03); ours must be below the redesign threshold.
	for _, g := range rep.GapsSecondHalf {
		if g.Skill == paperdata.Implementation && g.NeedsAttention {
			t.Error("implementation gap flagged for redesign")
		}
	}
}

func TestCompareShapeChecksPass(t *testing.T) {
	big, _ := sharedDatasets(t)
	rep, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	c := Compare(rep)
	if len(c.Metrics) < 40 {
		t.Fatalf("only %d metrics compared", len(c.Metrics))
	}
	if failed := c.FailedShape(); len(failed) != 0 {
		for _, f := range failed {
			t.Errorf("shape check failed: %s", f.Claim)
		}
	}
}

// TestCompareShapeOrderStable: the shape checks are printed in slice
// order, so every call on one report must list them identically.
func TestCompareShapeOrderStable(t *testing.T) {
	_, ref := sharedDatasets(t)
	rep, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := Compare(rep).Shape
	for i := 0; i < 50; i++ {
		if got := Compare(rep).Shape; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: shape checks reordered:\n got %v\nwant %v", i, got, want)
		}
	}
}

func TestCompareMetricsClose(t *testing.T) {
	big, _ := sharedDatasets(t)
	rep, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	c := Compare(rep)
	loose := 0
	for _, m := range c.Metrics {
		tol := 0.12
		if !m.Within(tol) {
			loose++
			t.Logf("off target: %s", m)
		}
	}
	if loose > len(c.Metrics)/10 {
		t.Fatalf("%d of %d metrics off target", loose, len(c.Metrics))
	}
}

func TestMetricComparisonHelpers(t *testing.T) {
	m := MetricComparison{Name: "x", Paper: 1.0, Measured: 1.25}
	if math.Abs(m.Delta()-0.25) > 1e-12 {
		t.Fatalf("delta = %v", m.Delta())
	}
	if !m.Within(0.25) || m.Within(0.2) {
		t.Fatal("Within thresholds wrong")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRenderReport(t *testing.T) {
	_, ref := sharedDatasets(t)
	rep, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderReport(&b, rep); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1.", "Table 2.", "Table 3.", "Table 4.", "Table 5.", "Table 6.",
		"Cohen's d", "Teamwork", "redesign threshold",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRenderComparison(t *testing.T) {
	_, ref := sharedDatasets(t)
	rep, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderComparison(&b, Compare(rep)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Paper vs measured") || !strings.Contains(out, "Shape checks") {
		t.Fatalf("comparison rendering incomplete:\n%s", out)
	}
}

func TestRunRejectsInvalidDataset(t *testing.T) {
	if _, err := Run(Dataset{}); err == nil {
		t.Fatal("expected validation error")
	}
}

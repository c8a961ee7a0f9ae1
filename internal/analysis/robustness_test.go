package analysis

import (
	"testing"

	"pblparallel/internal/survey"
)

// runReport runs the analysis, failing the test on error.
func runReport(t *testing.T, d Dataset) *Report {
	t.Helper()
	rep, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// withSections returns d with each sheet's section set by sectionOf.
func withSections(d Dataset, sectionOf func(studentID int) int) Dataset {
	d.Section = make([]int, len(d.End.Sheets))
	for i, sheet := range d.End.Sheets {
		d.Section[i] = sectionOf(sheet.StudentID)
	}
	return d
}

func TestCheckRobustness(t *testing.T) {
	big, _ := sharedDatasets(t)
	r := runReport(t, big).Robustness
	if len(r.Normality) != 4 {
		t.Fatalf("%d normality entries", len(r.Normality))
	}
	for key, jb := range r.Normality {
		if jb.N != len(big.Mid.Sheets) {
			t.Fatalf("%s: n = %d", key, jb.N)
		}
	}
	if len(r.DiffCI95) != 2 {
		t.Fatalf("%d CI entries", len(r.DiffCI95))
	}
	// Wave 2 is higher, so the wave1-wave2 CI lies entirely below zero
	// at n=3000 — the CI form of Tables 1-3's directional claim.
	for cat, ci := range r.DiffCI95 {
		if !(ci[0] < ci[1]) {
			t.Fatalf("%s: degenerate CI %v", cat, ci)
		}
		if ci[1] >= 0 {
			t.Fatalf("%s: CI %v not entirely below zero", cat, ci)
		}
	}
	// The non-parametric companion agrees with the t-tests: wave 2
	// dominates, significantly.
	if len(r.Wilcoxon) != 2 {
		t.Fatalf("%d wilcoxon entries", len(r.Wilcoxon))
	}
	for cat, wx := range r.Wilcoxon {
		if !wx.Significant(0.001) {
			t.Fatalf("%s: wilcoxon not significant: %+v", cat, wx)
		}
		if wx.WPlus >= wx.WMinus {
			t.Fatalf("%s: wilcoxon direction inverted: %+v", cat, wx)
		}
	}
}

func TestCheckRobustnessRejectsBadDataset(t *testing.T) {
	if _, err := Run(Dataset{}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

func TestCompareSectionsNullEffect(t *testing.T) {
	big, _ := sharedDatasets(t)
	// Assign sections deterministically by parity: the generator has no
	// section effect, so the comparison must be null.
	sc := runReport(t, withSections(big, func(id int) int { return 1 + id%2 })).Sections
	if sc == nil {
		t.Fatal("two sections, no comparison")
	}
	if sc.N1+sc.N2 != len(big.End.Sheets) {
		t.Fatalf("sections cover %d of %d", sc.N1+sc.N2, len(big.End.Sheets))
	}
	if !sc.NoSectionEffect(0.001) {
		t.Fatalf("phantom section effect: emphasis p=%v growth p=%v",
			sc.Emphasis.P, sc.Growth.P)
	}
}

func TestCompareSectionsValidation(t *testing.T) {
	big, _ := sharedDatasets(t)
	short := big
	short.Section = []int{1, 2}
	if _, err := Run(short); err == nil {
		t.Fatal("section list shorter than the sheets accepted")
	}
	if _, err := Run(withSections(big, func(int) int { return 7 })); err == nil {
		t.Fatal("bad section accepted")
	}
	if _, err := Run(withSections(big, func(int) int { return 0 })); err == nil {
		t.Fatal("section 0 accepted")
	}
	if _, err := Run(Dataset{Section: []int{1}}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
	// No sections, or only one, leaves nothing to compare.
	if sc := runReport(t, big).Sections; sc != nil {
		t.Fatalf("comparison without sections: %+v", sc)
	}
	for _, only := range []int{1, 2} {
		if sc := runReport(t, withSections(big, func(int) int { return only })).Sections; sc != nil {
			t.Fatalf("comparison with only section %d: %+v", only, sc)
		}
	}
}

func TestCompareSectionsRealisticSplit(t *testing.T) {
	// 62/62 split like the paper's sections.
	_, ref := sharedDatasets(t)
	sectionOf := func(id int) int {
		if id < 62 {
			return 1
		}
		return 2
	}
	sc := runReport(t, withSections(ref, sectionOf)).Sections
	if sc == nil || sc.N1 != 62 || sc.N2 != 62 {
		t.Fatalf("split %+v", sc)
	}
	_ = sc.NoSectionEffect(0.05) // value depends on the draw; just exercised
}

func TestRobustnessNormalityKeysNamed(t *testing.T) {
	big, _ := sharedDatasets(t)
	r := runReport(t, big).Robustness
	for _, c := range survey.Categories {
		for _, w := range survey.Waves {
			key := c.String() + "/" + w.String()
			if _, ok := r.Normality[key]; !ok {
				t.Fatalf("missing normality key %q (have %v)", key, keys(r.Normality))
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// firstSheets returns d cut to its first n paired sheets.
func firstSheets(d Dataset, n int) Dataset {
	d.Mid = survey.WaveData{Wave: d.Mid.Wave, Sheets: d.Mid.Sheets[:n]}
	d.End = survey.WaveData{Wave: d.End.Wave, Sheets: d.End.Sheets[:n]}
	return d
}

// TestRunSmallDatasetsOmitUndefinedChecks: Validate accepts 3 paired
// sheets, and so does Run. A robustness check that is undefined at that
// size (Jarque-Bera and Wilcoxon need 8 values) is left out of the
// report rather than failing it.
func TestRunSmallDatasetsOmitUndefinedChecks(t *testing.T) {
	_, ref := sharedDatasets(t)
	rep := runReport(t, firstSheets(ref, 3))
	r := rep.Robustness
	if rep.N != 3 || len(r.Normality) != 0 || len(r.Wilcoxon) != 0 {
		t.Fatalf("n=%d: checks defined only from 8 values reported: %+v", rep.N, r)
	}
	if len(r.DiffCI95) != 2 {
		t.Fatalf("n=3: %d CI entries, want 2", len(r.DiffCI95))
	}
	for n := 4; n <= 12; n++ {
		r := runReport(t, firstSheets(ref, n)).Robustness
		if n >= 8 && len(r.Normality) != 4 {
			t.Fatalf("n=%d: %d normality entries, want 4", n, len(r.Normality))
		}
	}
}

// TestRunTiedStudentOmitsWilcoxon: at 8 students, one whose mid and
// end answers agree leaves Wilcoxon 7 non-zero differences, too few for
// its normal approximation. Only that entry drops out; the t-tests and
// the other checks still run.
func TestRunTiedStudentOmitsWilcoxon(t *testing.T) {
	_, ref := sharedDatasets(t)
	d := firstSheets(ref, 8)
	tied := *d.Mid.Sheets[0]
	tied.Wave = survey.EndOfTerm
	end := append([]*survey.Sheet{&tied}, d.End.Sheets[1:]...)
	d.End = survey.WaveData{Wave: survey.EndOfTerm, Sheets: end}
	r := runReport(t, d).Robustness
	if len(r.Wilcoxon) != 0 {
		t.Fatalf("wilcoxon over 7 non-zero differences: %+v", r.Wilcoxon)
	}
	if len(r.Normality) != 4 || len(r.DiffCI95) != 2 {
		t.Fatalf("defined checks missing: %+v", r)
	}
}

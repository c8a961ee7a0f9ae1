package whatif

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pblparallel/internal/engine"
	"pblparallel/internal/paperdata"
	"pblparallel/internal/survey"
)

var (
	projOnce sync.Once
	proj     *Projection
	projErr  error
)

func sharedProjection(t testing.TB) *Projection {
	t.Helper()
	projOnce.Do(func() {
		// Large n keeps the projection free of sampling noise.
		proj, projErr = Project(context.Background(), engine.New(), TeamworkReinforcement(), 3000, 42)
	})
	if projErr != nil {
		t.Fatal(projErr)
	}
	return proj
}

func TestProjectionImprovesTeamworkCorrelation(t *testing.T) {
	p := sharedProjection(t)
	if !p.CorrelationImproved() {
		t.Fatalf("correlation did not improve: %+v -> %+v", p.Baseline, p.Projected)
	}
	// The improvement should be in the ballpark of the intervention.
	gain1 := p.Projected.FirstHalf.R - p.Baseline.FirstHalf.R
	gain2 := p.Projected.SecondHalf.R - p.Baseline.SecondHalf.R
	for _, g := range []float64{gain1, gain2} {
		if g < 0.05 || g > 0.3 {
			t.Fatalf("gain %v outside plausible window", g)
		}
	}
}

func TestProjectionBumpsGrowthComposite(t *testing.T) {
	p := sharedProjection(t)
	if p.ProjectedGrowthComposite <= p.BaselineGrowthComposite {
		t.Fatalf("growth composite did not rise: %.3f -> %.3f",
			p.BaselineGrowthComposite, p.ProjectedGrowthComposite)
	}
}

func TestProjectionLeavesOtherSkillsAlone(t *testing.T) {
	// The adjusted targets only touch Teamwork; the projection's
	// baseline comparison object is Table4Row for Teamwork only, so
	// verify via a fresh projection targeting a different skill that
	// the machinery is skill-specific (its baseline matches the shared
	// projection's non-intervened values is implicitly covered by the
	// calibration tests; here we check Validate wiring).
	iv := TeamworkReinforcement()
	if iv.Skill != paperdata.Teamwork {
		t.Fatalf("default intervention targets %q", iv.Skill)
	}
}

func TestInterventionValidate(t *testing.T) {
	ins := survey.NewBeyerlein()
	bad := Intervention{Skill: "Nope", DeltaR: 0.1}
	if err := bad.Validate(ins); err == nil {
		t.Fatal("unknown skill accepted")
	}
	bad = Intervention{Skill: paperdata.Teamwork, DeltaR: 0.9}
	if err := bad.Validate(ins); err == nil {
		t.Fatal("oversized DeltaR accepted")
	}
	bad = Intervention{Skill: paperdata.Teamwork, DeltaR: 0.1, DeltaGrowth: 0.9}
	if err := bad.Validate(ins); err == nil {
		t.Fatal("oversized DeltaGrowth accepted")
	}
	if err := TeamworkReinforcement().Validate(ins); err != nil {
		t.Fatal(err)
	}
}

func TestProjectValidation(t *testing.T) {
	if _, err := Project(context.Background(), engine.New(), Intervention{Skill: "X"}, 100, 1); err == nil {
		t.Fatal("bad intervention accepted")
	}
	if _, err := Project(context.Background(), engine.New(), TeamworkReinforcement(), 2, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestRenderReport(t *testing.T) {
	p := sharedProjection(t)
	out := p.Render()
	for _, want := range []string{"Spring 2019 projection", "Teamwork", "correlation H1", "growth composite H2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAdjustTargetsDoesNotMutateOriginal(t *testing.T) {
	// adjustTargets must copy the maps it changes; PaperTargets shares
	// the paperdata maps, which must never be written.
	beforeR := paperdata.Table4[paperdata.Teamwork].FirstHalfR
	beforeG := paperdata.Table6SecondHalf[paperdata.Teamwork]
	_ = sharedProjection(t)
	if paperdata.Table4[paperdata.Teamwork].FirstHalfR != beforeR {
		t.Fatal("projection mutated paperdata.Table4")
	}
	if paperdata.Table6SecondHalf[paperdata.Teamwork] != beforeG {
		t.Fatal("projection mutated paperdata.Table6SecondHalf")
	}
}

// TestProjectSmallCohorts: Project accepts n >= 8 and the serving
// endpoint n >= 10. At those sizes a robustness check of the analysis
// is often undefined (a student whose category averages did not move
// leaves Wilcoxon too few differences); the projection must not fail on
// a check it never reads.
func TestProjectSmallCohorts(t *testing.T) {
	eng := engine.New()
	for _, n := range []int{8, 10} {
		for seed := int64(1); seed <= 4; seed++ {
			if _, err := Project(context.Background(), eng, TeamworkReinforcement(), n, seed); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

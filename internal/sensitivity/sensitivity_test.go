package sensitivity

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pblparallel/internal/engine"
)

var (
	resOnce sync.Once
	res     *Result
	resErr  error
)

// sharedResult runs the 40-seed study once per test process.
func sharedResult(t testing.TB) *Result {
	t.Helper()
	resOnce.Do(func() {
		res, resErr = RunSweep(context.Background(), 20180800, 40, Options{})
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return res
}

func TestDistributionsCoverPaperValues(t *testing.T) {
	r := sharedResult(t)
	if r.Seeds != 40 || r.N != 124 {
		t.Fatalf("meta = %+v", r)
	}
	// The published d's fall inside the cross-seed 5-95% bands.
	if !(r.EmphasisD.Q05 <= 0.50 && 0.50 <= r.EmphasisD.Q95) {
		t.Errorf("published emphasis d outside band [%.3f, %.3f]", r.EmphasisD.Q05, r.EmphasisD.Q95)
	}
	if !(r.GrowthD.Q05 <= 0.86 && 0.86 <= r.GrowthD.Q95) {
		t.Errorf("published growth d outside band [%.3f, %.3f]", r.GrowthD.Q05, r.GrowthD.Q95)
	}
	// Growth effect stochastically dominates the emphasis effect.
	if r.GrowthD.Mean <= r.EmphasisD.Mean {
		t.Errorf("mean growth d %.3f not above emphasis %.3f", r.GrowthD.Mean, r.EmphasisD.Mean)
	}
	// Both t distributions live firmly below zero.
	if r.EmphasisT.Q95 >= 0 || r.GrowthT.Q95 >= 0 {
		t.Errorf("t bands reach zero: %+v / %+v", r.EmphasisT, r.GrowthT)
	}
}

func TestHeadlineClaimsRobustAcrossSeeds(t *testing.T) {
	r := sharedResult(t)
	for claim, rate := range r.ClaimRates {
		if rate < 0 || rate > 1 {
			t.Fatalf("rate %v for %q", rate, claim)
		}
	}
	// The claims the abstract rests on must hold in (nearly) every
	// resample.
	for _, claim := range []string{
		"growth paired t negative",
		"growth difference significant (p<0.05)",
		"all Table4 correlations positive",
	} {
		rate, ok := r.ClaimRates[claim]
		if !ok {
			t.Fatalf("claim %q not tracked (have %d claims)", claim, len(r.ClaimRates))
		}
		if rate < 0.95 {
			t.Errorf("headline claim %q holds in only %.0f%% of samples", claim, 100*rate)
		}
	}
	// "growth effect large" is a banding claim sitting right on the
	// d=0.8 boundary: at n=124 the sampling SD of d (~0.13) makes it
	// genuinely fragile — it should hold in a majority of samples but
	// not nearly all. This is a finding of the reproduction, recorded
	// in EXPERIMENTS.md, and the assertion pins it.
	rate := r.ClaimRates["growth effect large"]
	if rate < 0.5 || rate > 0.98 {
		t.Errorf("growth-effect-large rate %.0f%% outside the expected fragile band", 100*rate)
	}
}

func TestFragileClaims(t *testing.T) {
	r := sharedResult(t)
	fragile := r.FragileClaims(0.95)
	// Some ranking/band claims are legitimately fragile at n=124; the
	// list must be sorted ascending by rate and must not include the
	// headline significance claims.
	for _, f := range fragile {
		if strings.Contains(f, "growth difference significant") {
			t.Errorf("headline claim listed as fragile: %s", f)
		}
	}
	all := r.FragileClaims(1.01)
	if len(all) < len(fragile) {
		t.Fatal("raising the threshold shrank the list")
	}
}

func TestRender(t *testing.T) {
	r := sharedResult(t)
	out := r.Render()
	for _, want := range []string{"sensitivity across 40 seeds", "growth d", "emphasis t"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunSweep(context.Background(), 1, 2, Options{}); err == nil {
		t.Fatal("too few seeds accepted")
	}
}

// TestParallelMatchesSequentialBaseline is the engine's contract seen
// from the caller: the sweep's Result — including its rendered report —
// is byte-identical to the sequential baseline for worker counts 1, 2,
// and 8.
func TestParallelMatchesSequentialBaseline(t *testing.T) {
	run := func(workers int) *Result {
		r, err := RunSweep(context.Background(), 20180800, 12, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	baseline := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("workers=%d result diverged from sequential baseline:\n%+v\nvs\n%+v", workers, got, baseline)
		}
		if got.Render() != baseline.Render() {
			t.Errorf("workers=%d rendered report not byte-identical", workers)
		}
	}
}

// TestSweepCancellationSurfacesSentinel: a canceled sweep reports the
// engine's sentinel instead of a partial aggregate.
func TestSweepCancellationSurfacesSentinel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweep(ctx, 1, 10, Options{Workers: 2})
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
}

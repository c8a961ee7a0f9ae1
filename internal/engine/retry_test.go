package engine

import (
	"context"
	"strings"
	"testing"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// runFailPlan arms the engine's own injection site with the given
// transient-failure probability.
func runFailPlan(t *testing.T, seed int64, prob float64) *fault.Injector {
	t.Helper()
	in, err := fault.New(fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: fault.SiteEngineRun, Kind: fault.RunFail, Prob: prob},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRetryRecoversTransientFailures: with a moderate injected failure
// rate and a retry budget, the sweep completes with exactly the
// fault-free results, retries are visible in the metrics, and partial
// attempts show up in RunResult.Attempts.
func TestRetryRecoversTransientFailures(t *testing.T) {
	const n = 10
	clean, err := New(WithWorkers(2)).Sweep(context.Background(), testConfig(), SequentialSeeds(900), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.FirstErr(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	eng := New(WithWorkers(2), WithMetrics(reg), WithRetry(6))
	ctx := fault.NewContext(context.Background(), runFailPlan(t, 21, 0.5))
	chaos, err := eng.Sweep(ctx, testConfig(), SequentialSeeds(900), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.FirstErr(); err != nil {
		t.Fatalf("retry budget did not absorb injected failures: %v", err)
	}
	retriedRuns, attempts := 0, 0
	for i, r := range chaos.Runs {
		attempts += r.Attempts
		if got, want := fingerprint(r.Outcome), fingerprint(clean.Runs[i].Outcome); got != want {
			t.Errorf("run %d: chaos result diverged:\n  clean: %s\n  chaos: %s", i, want, got)
		}
		if r.Attempts > 1 {
			retriedRuns++
		}
	}
	if retriedRuns == 0 {
		t.Fatal("0.5 failure rate caused no retries; test is vacuous")
	}
	if got, want := reg.Counter("engine_runs_retried_total", "").Value(), int64(attempts-n); got != want {
		t.Fatalf("engine_runs_retried_total = %d, want attempts - runs = %d", got, want)
	}
}

// TestRetryDeterministicAcrossWorkerCounts extends the engine's core
// determinism guarantee to the chaos path: results AND per-run attempt
// counts are identical for workers 1, 2, and 8, because every fault
// decision is keyed by (run index, attempt), never by scheduling.
func TestRetryDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 8
	type runShape struct {
		fp       string
		attempts int
	}
	sweepShapes := func(workers int) []runShape {
		eng := New(WithWorkers(workers), WithRetry(6))
		ctx := fault.NewContext(context.Background(), runFailPlan(t, 77, 0.5))
		sweep, err := eng.Sweep(ctx, testConfig(), SequentialSeeds(1200), n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.FirstErr(); err != nil {
			t.Fatal(err)
		}
		out := make([]runShape, n)
		for i, r := range sweep.Runs {
			out[i] = runShape{fp: fingerprint(r.Outcome), attempts: r.Attempts}
		}
		return out
	}
	baseline := sweepShapes(1)
	multi := 0
	for _, s := range baseline {
		if s.attempts > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no run needed a retry; worker comparison is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got := sweepShapes(workers)
		for i := range baseline {
			if got[i] != baseline[i] {
				t.Errorf("workers=%d run %d: (result, attempts) diverged: %+v vs %+v",
					workers, i, got[i], baseline[i])
			}
		}
	}
}

// TestRetryBudgetExhaustion: a certain failure rate burns the whole
// budget and surfaces a transient-classified error with the full
// attempt count.
func TestRetryBudgetExhaustion(t *testing.T) {
	eng := New(WithWorkers(1), WithRetry(2))
	ctx := fault.NewContext(context.Background(), runFailPlan(t, 1, 1))
	sweep, err := eng.Sweep(ctx, testConfig(), SequentialSeeds(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := sweep.Runs[0]
	if r.Err == nil {
		t.Fatal("certain failure rate produced no error")
	}
	if r.Attempts != 3 {
		t.Fatalf("attempts = %d, want 1 + 2 retries", r.Attempts)
	}
	ferr := sweep.FirstErr()
	if !fault.IsTransient(ferr) {
		t.Fatalf("exhaustion error not transient: %v", ferr)
	}
	if !strings.Contains(ferr.Error(), "transient failure") {
		t.Fatalf("FirstErr did not classify the failure: %v", ferr)
	}
}

// TestPermanentErrorsAreNotRetried: a broken configuration fails
// identically on every attempt, so the engine must not burn budget on
// it — one attempt, classified permanent.
func TestPermanentErrorsAreNotRetried(t *testing.T) {
	cfg := testConfig()
	cfg.Cohort.NStudents = -5
	eng := New(WithWorkers(1), WithRetry(5))
	// An armed injector proves the permanent classification is about the
	// error, not about whether chaos is on.
	ctx := fault.NewContext(context.Background(), runFailPlan(t, 30, 0))
	sweep, err := eng.Sweep(ctx, cfg, SequentialSeeds(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := sweep.Runs[0]
	if r.Err == nil {
		t.Fatal("invalid cohort config produced no error")
	}
	if r.Attempts != 1 {
		t.Fatalf("permanent error retried: %d attempts", r.Attempts)
	}
	ferr := sweep.FirstErr()
	if fault.IsTransient(ferr) {
		t.Fatalf("config error classified transient: %v", ferr)
	}
	if !strings.Contains(ferr.Error(), "permanent failure") {
		t.Fatalf("FirstErr did not classify the failure: %v", ferr)
	}
}

// TestNoFaultContextMeansNoForks: without an injector in the context
// the retry machinery stays dormant — single attempts, no ledger.
func TestNoFaultContextMeansNoForks(t *testing.T) {
	eng := New(WithWorkers(2), WithRetry(3))
	sweep, err := eng.Sweep(context.Background(), testConfig(), SequentialSeeds(40), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i, r := range sweep.Runs {
		if r.Attempts != 1 {
			t.Fatalf("run %d took %d attempts with no faults armed", i, r.Attempts)
		}
	}
}

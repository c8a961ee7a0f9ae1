package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/core"
)

// testConfig is a small, uncalibrated study configuration: fast enough
// to sweep many times per test, stochastic everywhere it matters.
func testConfig() core.StudyConfig {
	cfg := core.PaperStudy()
	cfg.Cohort.NStudents = 40
	cfg.Cohort.NFemale = 8
	cfg.Cohort.Section1Females = 4
	cfg.Calibrate = false
	return cfg
}

// fingerprint reduces an outcome to the statistics the sweeps aggregate.
func fingerprint(o *core.Outcome) string {
	return fmt.Sprintf("%v|%v|%v|%v",
		o.Report.Table2.D, o.Report.Table3.D,
		o.Report.Table1.ClassEmphasis.T, o.Report.Table1.PersonalGrowth.T)
}

func sweepFingerprints(t *testing.T, workers, n int) []string {
	t.Helper()
	eng := New(WithWorkers(workers))
	sweep, err := eng.Sweep(context.Background(), testConfig(), SequentialSeeds(500), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Runs) != n {
		t.Fatalf("completed %d of %d runs", len(sweep.Runs), n)
	}
	out := make([]string, n)
	for i, r := range sweep.Runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d: results not in index order", i, r.Index)
		}
		if r.Seed != 500+int64(i) {
			t.Fatalf("run %d drew seed %d", i, r.Seed)
		}
		out[i] = fingerprint(r.Outcome)
	}
	return out
}

// TestSweepDeterministicAcrossWorkerCounts is the engine's core
// guarantee: the parallel result is identical to the sequential
// baseline for worker counts 1, 2, and 8.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 12
	baseline := sweepFingerprints(t, 1, n)
	for _, workers := range []int{2, 8} {
		got := sweepFingerprints(t, workers, n)
		for i := range baseline {
			if got[i] != baseline[i] {
				t.Errorf("workers=%d run %d diverged from sequential baseline:\n  seq: %s\n  par: %s",
					workers, i, baseline[i], got[i])
			}
		}
	}
	// Sanity: distinct seeds actually produce distinct outcomes, or the
	// comparison above is vacuous.
	if baseline[0] == baseline[1] {
		t.Fatal("distinct seeds produced identical outcomes; determinism test is vacuous")
	}
}

// TestSweepCancellation: a canceled context stops the sweep promptly
// and returns the completed prefix of work with the sentinel error.
func TestSweepCancellation(t *testing.T) {
	const n = 200
	m := NewMetrics()
	eng := New(WithWorkers(2), WithMetrics(m))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as a few runs have completed, so some work is done
	// and much is provably not.
	go func() {
		for m.Snapshot().Completed < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	sweep, err := eng.Sweep(ctx, testConfig(), SequentialSeeds(900), n)
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if len(sweep.Runs) == 0 {
		t.Fatal("no partial results collected")
	}
	// Prompt stop: the workers may finish what was in flight, but the
	// rest of the sweep must not run.
	if len(sweep.Runs) > n/2 {
		t.Fatalf("%d of %d runs completed after cancellation; stop was not prompt", len(sweep.Runs), n)
	}
	for i, r := range sweep.Runs {
		if r.Err == nil && r.Outcome == nil {
			t.Fatalf("partial run %d has neither outcome nor error", i)
		}
	}
}

// TestSweepCanceledBeforeStart: an already-dead context yields zero
// runs and the sentinel.
func TestSweepCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sweep, err := New(WithWorkers(4)).Sweep(ctx, testConfig(), SequentialSeeds(1), 10)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if len(sweep.Runs) != 0 {
		t.Fatalf("%d runs completed under a pre-canceled context", len(sweep.Runs))
	}
}

func TestSeedStreams(t *testing.T) {
	seq := SequentialSeeds(100)
	if seq(0) != 100 || seq(7) != 107 {
		t.Fatalf("sequential stream broken: %d, %d", seq(0), seq(7))
	}
	// Pure: same index, same seed, in any call order.
	a, b := seq(5), seq(0)
	if seq(5) != a || seq(0) != b {
		t.Fatal("SequentialSeeds is not pure")
	}
}

func TestMapOrderingAndFailFast(t *testing.T) {
	eng := New(WithWorkers(4))
	got, err := Map(context.Background(), eng, 20, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d", i, v)
		}
	}
	boom := errors.New("boom")
	_, err = Map(context.Background(), eng, 20, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if _, err := Map(context.Background(), eng, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty map")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	eng := New(WithWorkers(2), WithMetrics(m))
	const n = 6
	sweep, err := eng.Sweep(context.Background(), testConfig(), SequentialSeeds(40), n)
	if err != nil || sweep.FirstErr() != nil {
		t.Fatal(err, sweep.FirstErr())
	}
	s := m.Snapshot()
	if s.Started != n || s.Completed != n || s.Failed != 0 {
		t.Fatalf("counters started=%d completed=%d failed=%d", s.Started, s.Completed, s.Failed)
	}
	if s.Run.Count() != n || s.Run.Sum() <= 0 || s.Run.Max() < s.Run.Min() {
		t.Fatalf("run histogram count=%d sum=%v min=%v max=%v", s.Run.Count(), s.Run.Sum(), s.Run.Min(), s.Run.Max())
	}
	if s.Throughput <= 0 {
		t.Fatalf("throughput %v", s.Throughput)
	}
	for _, stage := range core.Stages {
		h, ok := s.Stages[stage]
		if !ok {
			t.Fatalf("stage %q not observed", stage)
		}
		if h.Count() != n {
			t.Fatalf("stage %q observed %d times, want %d", stage, h.Count(), n)
		}
		if q := h.Quantile(0.5); q < h.Min() {
			t.Fatalf("stage %q median %v below min %v", stage, q, h.Min())
		}
	}
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range append([]string{"engine metrics:", "completed=6", "throughput", "run"}, core.Stages...) {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics render missing %q:\n%s", want, out)
		}
	}
	// A nil sink must be inert, not a crash.
	var nilM *Metrics
	nilM.ObserveStage("x", time.Second)
	nilM.runStarted()
	nilM.runCompleted(time.Second)
	if s := nilM.Snapshot(); s.Started != 0 {
		t.Fatal("nil metrics reported activity")
	}
}

func TestSweepValidation(t *testing.T) {
	eng := New()
	if _, err := eng.Sweep(context.Background(), testConfig(), nil, 3); err == nil {
		t.Fatal("nil seed stream accepted")
	}
	if _, err := eng.Sweep(context.Background(), testConfig(), SequentialSeeds(0), -1); err == nil {
		t.Fatal("negative run count accepted")
	}
	sweep, err := eng.Sweep(context.Background(), testConfig(), SequentialSeeds(0), 0)
	if err != nil || len(sweep.Runs) != 0 {
		t.Fatalf("empty sweep: %v, %d runs", err, len(sweep.Runs))
	}
}

package engine

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/sched"
)

// TestSweepStealDeterminismBytes is the steal-path determinism
// property: the JSON encoding of a full sweep — outcomes, errors, and
// per-run attempt counts, with the PR 3 fault plan armed — is
// byte-identical at workers 1, 2, and 8 on a work-stealing runtime.
// Stealing moves indices between workers; it must never move bytes.
func TestSweepStealDeterminismBytes(t *testing.T) {
	const n = 64
	type runShape struct {
		Seed     int64
		Outcome  string
		Err      string
		Attempts int
	}
	sweepBytes := func(workers int) []byte {
		rt := sched.New(sched.WithWorkers(workers))
		defer rt.Close()
		eng := New(WithWorkers(workers), WithRetry(5, 0), WithRuntime(rt))
		ctx := fault.NewContext(context.Background(), runFailPlan(t, 99, 0.3))
		sweep, err := eng.Sweep(ctx, testConfig(), mixedSeeds(4242), n)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		shapes := make([]runShape, len(sweep.Runs))
		for i, r := range sweep.Runs {
			shapes[i] = runShape{Seed: r.Seed, Outcome: fingerprint(r.Outcome), Attempts: r.Attempts}
			if r.Err != nil {
				shapes[i].Err = r.Err.Error()
			}
		}
		buf, err := json.Marshal(shapes)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	base := sweepBytes(1)
	for _, workers := range []int{2, 8} {
		if got := sweepBytes(workers); string(got) != string(base) {
			t.Errorf("workers=%d: sweep bytes diverged from workers=1", workers)
		}
	}
}

// TestMapStealsUnderImbalance forces the steal path and proves it is
// both exercised and harmless: the first share's indices are slow, so
// fast participants must steal from it to finish, yet the results are
// exactly the identity mapping.
func TestMapStealsUnderImbalance(t *testing.T) {
	const n, workers = 32, 8
	rt := sched.New(sched.WithWorkers(workers))
	defer rt.Close()
	eng := New(WithWorkers(workers), WithRuntime(rt))
	out, err := Map(context.Background(), eng, n, func(ctx context.Context, i int) (int, error) {
		if i < 4 {
			time.Sleep(20 * time.Millisecond)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("index %d produced %d", i, v)
		}
	}
	if got := rt.Stats().RangeSteals; got == 0 {
		t.Fatal("imbalanced region recorded no range steals")
	}
}

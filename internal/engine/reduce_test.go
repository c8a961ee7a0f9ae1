package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pblparallel/internal/sched"
	"pblparallel/internal/stats"
)

// reduceValue derives a deterministic pseudo-random observation from
// an index alone, so any worker can compute any index's contribution
// independently — the same pure-function-of-index discipline the seed
// streams use.
func reduceValue(i int) float64 {
	s := mixedSeeds(977)(i)
	// Map the 63-bit seed onto [0, 8) with an offset so the data is
	// neither constant nor centered at zero.
	return 3.0 + float64(uint64(s)%(1<<20))/float64(1<<17)
}

// mixedSeeds streams well-mixed seeds: output i is the i-th value of
// a SplitMix64 generator seeded with base, computed directly, so any
// worker can derive any index's seed independently.
func mixedSeeds(base int64) SeedStream {
	const gamma = 0x9E3779B97F4A7C15
	return func(i int) int64 {
		z := uint64(base) + (uint64(i)+1)*gamma
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return int64(z ^ (z >> 31))
	}
}

func reduceMoments(t *testing.T, workers, n, grain int) stats.Moments {
	t.Helper()
	rt := sched.New(sched.WithWorkers(workers))
	defer rt.Close()
	e := New(WithWorkers(workers), WithRuntime(rt))
	m, err := Reduce(context.Background(), e, n, grain,
		func(_ context.Context, i int, part *stats.Moments) error {
			part.Add(reduceValue(i))
			return nil
		},
		func(into, part *stats.Moments) { into.Merge(*part) })
	if err != nil {
		t.Fatalf("Reduce(workers=%d): %v", workers, err)
	}
	return m
}

// TestReduceWorkerCountInvariance is the core determinism contract:
// the reduction result is bitwise identical at any worker count,
// because chunk contents and fold order depend only on (n, grain).
func TestReduceWorkerCountInvariance(t *testing.T) {
	const n, grain = 10_000, 64
	ref := reduceMoments(t, 1, n, grain)
	for _, w := range []int{2, 4, 8} {
		got := reduceMoments(t, w, n, grain)
		if got != ref {
			t.Fatalf("workers=%d: %+v differs from workers=1: %+v", w, got, ref)
		}
	}
}

// TestReduceMatchesSequentialChunkFold pins the exact association:
// Reduce equals computing each grain chunk's sketch sequentially and
// merging in ascending chunk order — bit for bit.
func TestReduceMatchesSequentialChunkFold(t *testing.T) {
	const n, grain = 5_000, 128
	got := reduceMoments(t, 8, n, grain)

	var want stats.Moments
	for lo := 0; lo < n; lo += grain {
		var part stats.Moments
		for i := lo; i < min(lo+grain, n); i++ {
			part.Add(reduceValue(i))
		}
		want.Merge(part)
	}
	if got != want {
		t.Fatalf("parallel %+v differs from sequential chunk fold %+v", got, want)
	}

	// And both agree with the plain one-pass sketch within tolerance
	// (not bitwise: chunked merging associates rounding differently).
	var whole stats.Moments
	for i := 0; i < n; i++ {
		whole.Add(reduceValue(i))
	}
	gm, _ := got.MeanValue()
	wm, _ := whole.MeanValue()
	if diff := gm - wm; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("chunked mean %v vs one-pass mean %v", gm, wm)
	}
}

func TestReduceGrainNormalizationAndEmpty(t *testing.T) {
	e := New(WithWorkers(2))
	sum := func(_ context.Context, i int, part *int) error { *part += i; return nil }
	merge := func(into, part *int) { *into += *part }

	// grain <= 0 normalizes to 1.
	got, err := Reduce(context.Background(), e, 10, 0, sum, merge)
	if err != nil || got != 45 {
		t.Fatalf("grain 0: got %d, %v; want 45, nil", got, err)
	}
	// n == 0 returns the zero value with no accum calls.
	got, err = Reduce(context.Background(), e, 0, 8, sum, merge)
	if err != nil || got != 0 {
		t.Fatalf("empty: got %d, %v; want 0, nil", got, err)
	}
	if _, err = Reduce(context.Background(), e, -1, 8, sum, merge); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err = Reduce[int](context.Background(), e, 4, 1, nil, nil); err == nil {
		t.Fatal("nil funcs accepted")
	}
}

// TestReduceFailFast: the first accum error (by chunk index) is
// returned, wrapped with its chunk's index range.
func TestReduceFailFast(t *testing.T) {
	e := New(WithWorkers(4))
	boom := errors.New("boom")
	_, err := Reduce(context.Background(), e, 100, 10,
		func(_ context.Context, i int, part *int) error {
			if i == 37 {
				return boom
			}
			*part += i
			return nil
		},
		func(into, part *int) { *into += *part })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if want := "chunk 3 (indices 30..39)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

func TestReduceCanceled(t *testing.T) {
	e := New(WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Reduce(ctx, e, 1000, 10,
		func(context.Context, int, *int) error { return nil },
		func(into, part *int) { *into += *part })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

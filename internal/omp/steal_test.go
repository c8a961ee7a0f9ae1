package omp

import (
	"sort"
	"sync"
	"testing"
)

// TestStealScheduleValidation: a non-positive claim granularity is
// rejected at loop entry like every other schedule's chunk size.
func TestStealScheduleValidation(t *testing.T) {
	if err := For(0, 10, Steal{Chunk: 0}, func(int, int) {}); err == nil {
		t.Fatal("zero steal chunk accepted")
	}
	if err := For(0, 10, Steal{Chunk: -2}, func(int, int) {}); err == nil {
		t.Fatal("negative steal chunk accepted")
	}
}

// TestStealClaimStartsGrainAligned is the fault-key stability property
// behind the steal schedule: whatever the team size and however steals
// interleave, every claim starts on an absolute Chunk boundary, so the
// set of claim starts — the (epoch, start) fault-injection keys — is
// exactly {0, c, 2c, ...} for every run. White-box: drives the
// schedule's dispatcher from one goroutine per thread so the claims
// themselves are observable.
func TestStealClaimStartsGrainAligned(t *testing.T) {
	for _, shape := range []struct{ count, chunk, threads int }{
		{100, 10, 1}, {100, 10, 4}, {97, 8, 3}, {1000, 16, 8}, {5, 3, 6},
	} {
		var mu sync.Mutex
		var starts []int
		covered := make([]int, shape.count)
		d, err := NewDispatcher(Steal{Chunk: shape.chunk}, shape.count, shape.threads)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for tid := 0; tid < shape.threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for {
					start, length := d.Next(tid)
					if length == 0 {
						return
					}
					mu.Lock()
					starts = append(starts, start)
					for i := start; i < start+length; i++ {
						covered[i]++
					}
					mu.Unlock()
				}
			}(tid)
		}
		wg.Wait()
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%+v: index %d claimed %d times", shape, i, c)
			}
		}
		sort.Ints(starts)
		for i, s := range starts {
			if s != i*shape.chunk {
				t.Fatalf("%+v: claim start #%d = %d, want %d (grain-aligned)", shape, i, s, i*shape.chunk)
			}
		}
	}
}

// TestStealReduceMatchesSequential: an integer reduction under the
// steal schedule is exact at every team size — stealing repartitions
// indices between threads, and an associative-commutative fold cannot
// tell. (Bit-level float determinism across team sizes is a property
// of index-ordered results, tested at the engine layer, not of
// per-thread partials — no dynamic-partition schedule provides it.)
func TestStealReduceMatchesSequential(t *testing.T) {
	const n = 512
	var want int64
	for i := 0; i < n; i++ {
		want += int64(i * i)
	}
	for _, threads := range []int{1, 2, 3, 8} {
		got, err := ForReduce(0, n, Steal{Chunk: 8}, int64(0),
			func(a, b int64) int64 { return a + b },
			func(i int, acc int64) int64 { return acc + int64(i*i) },
			WithNumThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("threads=%d: sum %d, want %d", threads, got, want)
		}
	}
}

package omp

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestForOrderedSequencesOutput(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	var order []int
	err := Parallel(func(tc *ThreadContext) {
		ferr := tc.ForOrdered(0, n, Dynamic{Chunk: 3}, func(i int, ordered func(func())) {
			// Unordered work may interleave arbitrarily...
			_ = i * i
			// ...but the ordered section must append in index order.
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
		if ferr != nil {
			panic(ferr)
		}
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("%d ordered sections ran", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d got iteration %d", i, v)
		}
	}
}

func TestForOrderedWithOffsetRange(t *testing.T) {
	var mu sync.Mutex
	var order []int
	err := Parallel(func(tc *ThreadContext) {
		ferr := tc.ForOrdered(10, 30, Static{}, func(i int, ordered func(func())) {
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
		if ferr != nil {
			panic(ferr)
		}
	}, WithNumThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range order {
		if v != 10+k {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestForOrderedDoubleCallPanics(t *testing.T) {
	err := Parallel(func(tc *ThreadContext) {
		_ = tc.ForOrdered(0, 4, Static{}, func(i int, ordered func(func())) {
			ordered(func() {})
			ordered(func() {}) // second call must panic
		})
	}, WithNumThreads(1))
	if err == nil {
		t.Fatal("double ordered call not rejected")
	}
}

func TestForOrderedMissingCallPanics(t *testing.T) {
	err := Parallel(func(tc *ThreadContext) {
		_ = tc.ForOrdered(0, 4, Static{}, func(i int, ordered func(func())) {
			// never calls ordered
		})
	}, WithNumThreads(1))
	if err == nil {
		t.Fatal("missing ordered call not rejected")
	}
}

func TestConsecutiveOrderedLoopsIndependent(t *testing.T) {
	var mu sync.Mutex
	var a, b []int
	err := Parallel(func(tc *ThreadContext) {
		if ferr := tc.ForOrdered(0, 20, Dynamic{Chunk: 1}, func(i int, ordered func(func())) {
			ordered(func() { mu.Lock(); a = append(a, i); mu.Unlock() })
		}); ferr != nil {
			panic(ferr)
		}
		if ferr := tc.ForOrdered(0, 15, Dynamic{Chunk: 2}, func(i int, ordered func(func())) {
			ordered(func() { mu.Lock(); b = append(b, i); mu.Unlock() })
		}); ferr != nil {
			panic(ferr)
		}
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 20 || len(b) != 15 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != i {
			t.Fatalf("first loop order %v", a)
		}
	}
	for i := range b {
		if b[i] != i {
			t.Fatalf("second loop order %v", b)
		}
	}
}

// Property: ordering holds for any schedule and team size.
func TestForOrderedProperty(t *testing.T) {
	f := func(nRaw, thrRaw, kind, chunkRaw uint8) bool {
		n := int(nRaw) % 80
		threads := 1 + int(thrRaw)%6
		c := 1 + int(chunkRaw)%4
		var sched Schedule
		switch kind % 4 {
		case 0:
			sched = Static{}
		case 1:
			sched = StaticChunk{Chunk: c}
		case 2:
			sched = Dynamic{Chunk: c}
		default:
			sched = Guided{MinChunk: c}
		}
		var mu sync.Mutex
		var order []int
		err := Parallel(func(tc *ThreadContext) {
			ferr := tc.ForOrdered(0, n, sched, func(i int, ordered func(func())) {
				ordered(func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			})
			if ferr != nil {
				panic(ferr)
			}
		}, WithNumThreads(threads))
		if err != nil {
			return false
		}
		if len(order) != n {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConstructTablesEmptyAfterRegionWork: the team's per-epoch tables
// drop each For, ForOrdered, Single and Sections entry once every member
// has taken it, so a long region does not accumulate them, and
// ForOrdered still runs its ordered sections in order.
func TestConstructTablesEmptyAfterRegionWork(t *testing.T) {
	const rounds, n = 1000, 16
	var order []int
	var singles int
	err := Parallel(func(tc *ThreadContext) {
		for r := 0; r < rounds; r++ {
			if err := tc.For(0, n, Dynamic{Chunk: 1}, func(int) {}); err != nil {
				panic(err)
			}
			if err := tc.Single(func() { singles++ }); err != nil {
				panic(err)
			}
		}
		if err := tc.Sections(func() {}, func() {}, func() {}); err != nil {
			panic(err)
		}
		err := tc.ForOrdered(0, n, Dynamic{Chunk: 2}, func(i int, ordered func(func())) {
			ordered(func() { order = append(order, i) })
		})
		if err != nil {
			panic(err)
		}
		tc.Master(func() {
			tm := tc.team
			if len(tm.loops) != 0 || len(tm.singleArrivals) != 0 || len(tm.sectionTickets) != 0 {
				t.Errorf("tables hold %d loops, %d singles, %d sections after every member took them",
					len(tm.loops), len(tm.singleArrivals), len(tm.sectionTickets))
			}
		})
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if singles != rounds {
		t.Fatalf("singles ran %d times, want %d", singles, rounds)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("ordered sections ran out of order: %v", order)
		}
	}
	if len(order) != n {
		t.Fatalf("ordered sections ran %d times, want %d", len(order), n)
	}
}

package omp

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTasksRunExactlyOnce(t *testing.T) {
	const nTasks = 100
	counts := make([]atomic.Int64, nTasks)
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() {
			for i := 0; i < nTasks; i++ {
				i := i
				tc.Task(func(*ThreadContext) { counts[i].Add(1) })
			}
		})
		tc.Taskwait()
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestTasksSpawnTasks(t *testing.T) {
	// Each level-1 task spawns two level-2 children and waits for them.
	var level1, level2 atomic.Int64
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() {
			for i := 0; i < 8; i++ {
				tc.Task(func(tcx *ThreadContext) {
					level1.Add(1)
					tcx.Task(func(*ThreadContext) { level2.Add(1) })
					tcx.Task(func(*ThreadContext) { level2.Add(1) })
					tcx.Taskwait()
				})
			}
		})
		tc.Taskwait()
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if level1.Load() != 8 || level2.Load() != 16 {
		t.Fatalf("levels = %d/%d", level1.Load(), level2.Load())
	}
}

func TestTaskwaitIsChildScoped(t *testing.T) {
	// A task's Taskwait must return once ITS children finish, even when
	// unrelated sibling tasks are still pending — the property a global
	// drain would violate (and deadlock on).
	var order []string
	var mu Lock
	record := func(s string) {
		mu.Set()
		order = append(order, s)
		mu.Unset()
	}
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() {
			tc.Task(func(tcx *ThreadContext) {
				tcx.Task(func(*ThreadContext) { record("child") })
				tcx.Taskwait()
				record("after-child-wait")
			})
		})
		tc.Taskwait()
	}, WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "child" || order[1] != "after-child-wait" {
		t.Fatalf("order = %v", order)
	}
}

func TestTaskFibonacci(t *testing.T) {
	// The canonical tasking demo: recursive fib where each node spawns
	// two child tasks and taskwaits on them.
	var fib func(tc *ThreadContext, n int) int64
	fib = func(tc *ThreadContext, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		var a, b int64
		tc.Task(func(tcx *ThreadContext) { a = fib(tcx, n-1) })
		tc.Task(func(tcx *ThreadContext) { b = fib(tcx, n-2) })
		tc.Taskwait()
		return a + b
	}
	var got int64
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() { got = fib(tc, 12) })
		tc.Taskwait()
	}, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 144 {
		t.Fatalf("fib(12) = %d", got)
	}
}

func TestTaskwaitWithoutTasks(t *testing.T) {
	err := Parallel(func(tc *ThreadContext) {
		tc.Taskwait() // must not block
	}, WithNumThreads(3))
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnawaitedTasksRunBeforeRegionEnds: the end of a region is a task
// scheduling point, so a task nobody awaits, and the child it creates
// without awaiting, have both run when Parallel returns.
func TestUnawaitedTasksRunBeforeRegionEnds(t *testing.T) {
	var parent, child atomic.Bool
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() {
			tc.Task(func(tc *ThreadContext) {
				parent.Store(true)
				tc.Task(func(*ThreadContext) { child.Store(true) })
			})
		})
	}, WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if !parent.Load() {
		t.Fatal("unawaited task never ran")
	}
	if !child.Load() {
		t.Fatal("unawaited child of an unawaited task never ran")
	}
}

func TestNilTaskIgnored(t *testing.T) {
	err := Parallel(func(tc *ThreadContext) {
		tc.Task(nil)
		tc.Taskwait()
	}, WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}
}

func TestTaskPanicPropagatesWithoutDeadlock(t *testing.T) {
	// A panicking task must not strand its siblings' Taskwait.
	err := Parallel(func(tc *ThreadContext) {
		tc.Master(func() {
			tc.Task(func(*ThreadContext) { panic("task boom") })
			tc.Task(func(*ThreadContext) {})
		})
		tc.Taskwait()
	}, WithNumThreads(2))
	if err == nil {
		t.Fatal("task panic not surfaced")
	}
}

// Property: for any task count and team size, every task runs once.
func TestTaskCompletenessProperty(t *testing.T) {
	f := func(nRaw, thrRaw uint8) bool {
		n := int(nRaw) % 150
		threads := 1 + int(thrRaw)%6
		var total atomic.Int64
		err := Parallel(func(tc *ThreadContext) {
			tc.Master(func() {
				for i := 0; i < n; i++ {
					tc.Task(func(*ThreadContext) { total.Add(1) })
				}
			})
			tc.Taskwait()
		}, WithNumThreads(threads))
		return err == nil && total.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

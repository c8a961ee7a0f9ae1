package omp

// ForOrdered is the work-sharing loop with an ordered clause: iterations
// run in parallel per the schedule, but each body may call ordered(f)
// exactly once, and those f calls execute in ascending iteration order —
// OpenMP's "#pragma omp for ordered". Every team member must call
// ForOrdered with identical arguments.
//
// The ordered callback passed to body must be invoked exactly once per
// iteration; skipping it stalls all higher iterations (as in OpenMP,
// where an ordered loop requires the ordered region to be reached).
func (tc *ThreadContext) ForOrdered(lo, hi int, sched Schedule, body func(i int, ordered func(f func()))) error {
	l, err := tc.nextLoop(lo, hi, sched)
	if err != nil {
		return err
	}
	return tc.run(l, lo, hi, sched, func(i int) {
		called := false
		body(i, func(f func()) {
			if called {
				panic("omp: ordered called twice in one iteration")
			}
			called = true
			l.mu.Lock()
			for l.turn != i-lo {
				l.cond.Wait()
			}
			l.mu.Unlock()
			f()
			l.mu.Lock()
			l.turn++
			l.cond.Broadcast()
			l.mu.Unlock()
		})
		if !called {
			panic("omp: ordered not called in iteration")
		}
	})
}

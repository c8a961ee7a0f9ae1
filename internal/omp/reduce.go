package omp

import "fmt"

// ForReduce is the reduction-clause loop ("when loops have
// dependencies"): iterations are distributed per the schedule, each
// thread folds its share into a private accumulator seeded with
// identity, and the per-thread partials are combined in thread order.
// The combine order is therefore fixed for a given team size, but each
// partial's contents are only as reproducible as the schedule. A
// static schedule (Static, StaticChunk) hands every thread the same
// iterations on every run, so a non-associative fold (floating-point
// addition) reproduces bitwise; under Dynamic or Guided, which thread
// claims which chunk varies run to run, and so do the float partials.
//
// combine must be associative with identity as its neutral element;
// body(i, acc) returns the new private accumulator after iteration i.
func ForReduce[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, body func(i int, acc T) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || body == nil {
		return zero, fmt.Errorf("omp: ForReduce requires combine and body")
	}
	parts, err := partials(lo, hi, sched, identity, body, opts)
	if err != nil {
		return zero, err
	}
	result := identity
	for _, p := range parts {
		result = combine(result, p)
	}
	return result, nil
}

// ForReduceTree combines per-thread partials pairwise in a balanced tree
// instead of serially. Exposed for the ablation comparing combine
// strategies; for float64 sums the two orders differ only by rounding.
func ForReduceTree[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, body func(i int, acc T) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || body == nil {
		return zero, fmt.Errorf("omp: ForReduceTree requires combine and body")
	}
	level, err := partials(lo, hi, sched, identity, body, opts)
	if err != nil {
		return zero, err
	}
	for len(level) > 1 {
		next := make([]T, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, combine(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	if len(level) == 0 {
		return identity, nil
	}
	return combine(identity, level[0]), nil
}

// partials runs the reduction loop on a team and returns each thread's
// private accumulator in thread order. Thread 0 sizes the slice before
// the loop and thread tid writes only slot tid after the loop's
// barrier, so the slots need no lock.
func partials[T any](lo, hi int, sched Schedule, identity T,
	body func(i int, acc T) T, opts []Option) ([]T, error) {
	var out []T
	err := Parallel(func(tc *ThreadContext) {
		if tc.ThreadNum() == 0 {
			out = make([]T, tc.NumThreads())
		}
		acc := identity
		if err := tc.For(lo, hi, sched, func(i int) { acc = body(i, acc) }); err != nil {
			panic(err)
		}
		out[tc.ThreadNum()] = acc
	}, opts...)
	return out, err
}

// ForReduceCritical folds every iteration straight into one shared
// accumulator under a critical section — the naive strategy the course
// contrasts with the reduction clause. Exposed for the ablation bench;
// its combine order is nondeterministic and its lock traffic is O(hi-lo).
func ForReduceCritical[T any](lo, hi int, sched Schedule, identity T,
	combine func(a, b T) T, value func(i int) T, opts ...Option) (T, error) {
	var zero T
	if combine == nil || value == nil {
		return zero, fmt.Errorf("omp: ForReduceCritical requires combine and value")
	}
	shared := identity
	err := Parallel(func(tc *ThreadContext) {
		ferr := tc.For(lo, hi, sched, func(i int) {
			v := value(i)
			tc.Critical("reduce", func() {
				shared = combine(shared, v)
			})
		})
		if ferr != nil {
			panic(ferr)
		}
	}, opts...)
	if err != nil {
		return zero, err
	}
	return shared, nil
}

// For runs a standalone parallel-for over its own team: the "running
// loops in parallel" patternlet without writing the region explicitly.
func For(lo, hi int, sched Schedule, body func(tid, i int), opts ...Option) error {
	if body == nil {
		return fmt.Errorf("omp: For requires a body")
	}
	return Parallel(func(tc *ThreadContext) {
		err := tc.For(lo, hi, sched, func(i int) { body(tc.ThreadNum(), i) })
		if err != nil {
			panic(err)
		}
	}, opts...)
}

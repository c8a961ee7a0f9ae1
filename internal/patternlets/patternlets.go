// Package patternlets implements the Shared Memory Parallel Patternlets
// the course assigns (CSinParallel's OpenMP patternlet collection,
// reference [8] of the paper), translated onto the omp runtime:
//
//	Assignment 2: fork-join, SPMD, and the shared-memory data race;
//	Assignment 3: the default parallel-for, static/dynamic scheduling
//	              with chunks of one, two, and three, and the
//	              reduction-clause loop;
//	Assignment 4: trapezoidal integration, barrier coordination, and
//	              the master-worker strategy.
//
// Each patternlet is a small function with a checkable result plus a
// Demo writer for the CLI tour, mirroring how students ran, modified,
// and reported on each program.
package patternlets

import (
	"fmt"
	"sort"
	"sync"

	"pblparallel/internal/omp"
)

// ForkJoinTrace records the fork-join patternlet's structure: the
// sequential part before the fork, each team member's activity, and the
// sequential part after the join.
type ForkJoinTrace struct {
	Before  string
	During  []string // one entry per thread, in thread order
	After   string
	Threads int
}

// ForkJoin runs the Assignment 2 fork-join patternlet.
func ForkJoin(nThreads int) (ForkJoinTrace, error) {
	tr := ForkJoinTrace{
		Before:  "before the parallel region: one thread",
		During:  make([]string, nThreads),
		Threads: nThreads,
	}
	err := omp.Parallel(func(tc *omp.ThreadContext) {
		tr.During[tc.ThreadNum()] = fmt.Sprintf("during: thread %d of %d working", tc.ThreadNum(), tc.NumThreads())
	}, omp.WithNumThreads(nThreads))
	if err != nil {
		return ForkJoinTrace{}, err
	}
	tr.After = "after the join: one thread again"
	return tr, nil
}

// SPMD runs the Single Program Multiple Data patternlet: every thread
// executes the same program and reports its identity.
func SPMD(nThreads int) ([]string, error) {
	out := make([]string, nThreads)
	err := omp.Parallel(func(tc *omp.ThreadContext) {
		out[tc.ThreadNum()] = fmt.Sprintf("Hello from thread %d of %d", tc.ThreadNum(), tc.NumThreads())
	}, omp.WithNumThreads(nThreads))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RaceReport compares three ways of incrementing a shared counter — the
// Assignment 2 lesson that "scope matters" when one memory bank is
// shared.
type RaceReport struct {
	Expected int64
	// Racy is the unsynchronized read-modify-write result; it may lose
	// updates (Racy <= Expected).
	Racy int64
	// Critical and Atomic are the two correct repairs Assignment 4
	// discusses; both always equal Expected.
	Critical int64
	Atomic   int64
}

// LostUpdates reports how many increments the racy counter dropped.
func (r RaceReport) LostUpdates() int64 { return r.Expected - r.Racy }

// DataRace runs the shared-memory-concerns patternlet.
func DataRace(nThreads int, itersPerThread int) (RaceReport, error) {
	if nThreads < 1 || itersPerThread < 0 {
		return RaceReport{}, fmt.Errorf("patternlets: bad race parameters %d/%d", nThreads, itersPerThread)
	}
	rep := RaceReport{Expected: int64(nThreads) * int64(itersPerThread)}
	var racy omp.AtomicInt64
	var atomicCtr omp.AtomicInt64
	var criticalCtr int64
	err := omp.Parallel(func(tc *omp.ThreadContext) {
		for i := 0; i < itersPerThread; i++ {
			racy.RacyAdd(1)
			atomicCtr.Add(1)
			tc.Critical("counter", func() { criticalCtr++ })
		}
	}, omp.WithNumThreads(nThreads))
	if err != nil {
		return RaceReport{}, err
	}
	rep.Racy = racy.Load()
	rep.Atomic = atomicCtr.Load()
	rep.Critical = criticalCtr
	return rep, nil
}

// LoopAssignment maps each thread to the iteration indices it executed —
// the quantity Assignment 3's scheduling patternlet asks students to
// observe for chunks of size one, two, and three.
type LoopAssignment struct {
	Schedule string
	Threads  int
	// Indices[tid] lists the iterations thread tid ran, in order.
	Indices [][]int
}

// Coverage returns all executed indices, sorted.
func (la LoopAssignment) Coverage() []int {
	var all []int
	for _, idx := range la.Indices {
		all = append(all, idx...)
	}
	sort.Ints(all)
	return all
}

// LoopSchedulingTrace runs a parallel loop of n iterations under the
// schedule and records which thread got which iteration.
func LoopSchedulingTrace(n, nThreads int, sched omp.Schedule) (LoopAssignment, error) {
	la := LoopAssignment{Threads: nThreads, Indices: make([][]int, nThreads)}
	var mu sync.Mutex
	err := omp.Parallel(func(tc *omp.ThreadContext) {
		mine, ferr := tc.ForCollect(0, n, sched)
		if ferr != nil {
			panic(ferr)
		}
		mu.Lock()
		la.Indices[tc.ThreadNum()] = mine
		mu.Unlock()
	}, omp.WithNumThreads(nThreads))
	if err != nil {
		return LoopAssignment{}, err
	}
	la.Schedule = sched.Name()
	return la, nil
}

// ParallelLoopEqualChunks is the Assignment 3 default-schedule loop:
// "threads iterate through equal sized chunks of the index range".
func ParallelLoopEqualChunks(n, nThreads int) (LoopAssignment, error) {
	return LoopSchedulingTrace(n, nThreads, omp.Static{})
}

// SumWithReduction is the "when loops have dependencies" patternlet:
// a loop-carried sum handled with the reduction clause.
func SumWithReduction(xs []float64, nThreads int) (float64, error) {
	return omp.ForReduce(0, len(xs), omp.Static{}, 0.0,
		func(a, b float64) float64 { return a + b },
		func(i int, acc float64) float64 { return acc + xs[i] },
		omp.WithNumThreads(nThreads))
}

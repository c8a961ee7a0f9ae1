package patternlets

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pblparallel/internal/omp"
)

// Patternlet is one runnable course program.
type Patternlet struct {
	Name       string
	Assignment int // which course assignment introduces it
	Summary    string
	Demo       func(w io.Writer, nThreads int) error
}

// Registry returns every patternlet in course order.
func Registry() []Patternlet {
	return []Patternlet{
		{"forkjoin", 2, "the fork-join programming pattern", demoForkJoin},
		{"spmd", 2, "Single Program Multiple Data on shared memory", demoSPMD},
		{"datarace", 2, "shared-memory concerns: the data race and its repairs", demoDataRace},
		{"parallelloop", 3, "parallel for with equal-sized chunks", demoParallelLoop},
		{"scheduling", 3, "static vs dynamic loop scheduling, chunks 1/2/3", demoScheduling},
		{"reduction", 3, "the parallel-for reduction clause", demoReduction},
		{"trapezoid", 4, "integration with the trapezoidal rule", demoTrapezoid},
		{"barrier", 4, "coordination: synchronization with a barrier", demoBarrier},
		{"masterworker", 4, "the master-worker implementation strategy", demoMasterWorker},
		{"divideconquer", 5, "recursive quicksort forking nested regions on the work-stealing runtime", demoDivideConquer},
	}
}

// Lookup finds a patternlet by name.
func Lookup(name string) (Patternlet, error) {
	for _, p := range Registry() {
		if p.Name == name {
			return p, nil
		}
	}
	return Patternlet{}, fmt.Errorf("patternlets: unknown patternlet %q", name)
}

func demoForkJoin(w io.Writer, nThreads int) error {
	tr, err := ForkJoin(nThreads)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, tr.Before)
	for _, line := range tr.During {
		fmt.Fprintln(w, " ", line)
	}
	fmt.Fprintln(w, tr.After)
	return nil
}

func demoSPMD(w io.Writer, nThreads int) error {
	lines, err := SPMD(nThreads)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return nil
}

func demoDataRace(w io.Writer, nThreads int) error {
	rep, err := DataRace(nThreads, 50000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "expected:            %d\n", rep.Expected)
	fmt.Fprintf(w, "racy counter:        %d (lost %d updates)\n", rep.Racy, rep.LostUpdates())
	fmt.Fprintf(w, "critical section:    %d\n", rep.Critical)
	fmt.Fprintf(w, "atomic increments:   %d\n", rep.Atomic)
	fmt.Fprintln(w, "lesson: scope matters — shared read-modify-write needs synchronization")
	return nil
}

func demoParallelLoop(w io.Writer, nThreads int) error {
	la, err := ParallelLoopEqualChunks(16, nThreads)
	if err != nil {
		return err
	}
	return renderAssignment(w, la)
}

func demoScheduling(w io.Writer, nThreads int) error {
	for _, sched := range []omp.Schedule{
		omp.StaticChunk{Chunk: 1}, omp.StaticChunk{Chunk: 2}, omp.StaticChunk{Chunk: 3},
		omp.Dynamic{Chunk: 1}, omp.Dynamic{Chunk: 2}, omp.Dynamic{Chunk: 3},
	} {
		la, err := LoopSchedulingTrace(12, nThreads, sched)
		if err != nil {
			return err
		}
		if err := renderAssignment(w, la); err != nil {
			return err
		}
	}
	return nil
}

func demoReduction(w io.Writer, nThreads int) error {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sum, err := SumWithReduction(xs, nThreads)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sum of 1..1000 by reduction on %d threads: %.0f (want 500500)\n", nThreads, sum)
	return nil
}

func demoTrapezoid(w io.Writer, nThreads int) error {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		pi, err := PiByTrapezoid(n, nThreads)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pi with %7d trapezoids: %.10f (error %.2e)\n", n, pi, PiError(pi))
	}
	return nil
}

func demoBarrier(w io.Writer, nThreads int) error {
	phases, err := BarrierCoordination(nThreads)
	if err != nil {
		return err
	}
	for _, ph := range phases {
		fmt.Fprintf(w, "thread %d: phase-1 arrival #%d, phase-2 arrival #%d\n",
			ph.Thread, ph.BeforeOrder, ph.AfterOrder)
	}
	fmt.Fprintln(w, "every phase-1 line precedes every phase-2 line: the barrier held")
	return nil
}

func demoMasterWorker(w io.Writer, nThreads int) error {
	if nThreads < 2 {
		nThreads = 2
	}
	records, err := MasterWorker(nThreads, 12, func(task int) {
		_ = math.Sqrt(float64(task)) // stand-in for real work
	})
	if err != nil {
		return err
	}
	for _, r := range records {
		role := "worker"
		if r.Worker == 0 {
			role = "master"
		}
		fmt.Fprintf(w, "thread %d (%s): tasks %v\n", r.Worker, role, r.Tasks)
	}
	return nil
}

func renderAssignment(w io.Writer, la LoopAssignment) error {
	if _, err := fmt.Fprintf(w, "schedule %-10s over %d threads:\n", la.Schedule, la.Threads); err != nil {
		return err
	}
	for tid, idx := range la.Indices {
		sorted := append([]int(nil), idx...)
		sort.Ints(sorted)
		if _, err := fmt.Fprintf(w, "  thread %d -> %v\n", tid, sorted); err != nil {
			return err
		}
	}
	return nil
}

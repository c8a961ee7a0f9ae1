package drugdesign

import (
	"fmt"

	"pblparallel/internal/omp"
	"pblparallel/internal/pisim"
)

// Approach names one of the assignment's three solutions for the
// virtual-time experiments.
type Approach string

const (
	Sequential Approach = "sequential"
	OMP        Approach = "omp"
	Threads    Approach = "threads"
)

// Approaches lists the three in the order the assignment's report
// template compares them.
var Approaches = []Approach{Sequential, OMP, Threads}

// Cost models (cycles per DP cell of the LCS scoring loop). The OMP
// runtime dispatches through its work-sharing loop; the hand-rolled
// thread pool pays channel-receive overhead per ligand, slightly more
// than OMP's chunk dispatch — matching the exemplar's observation that
// the two parallel versions perform similarly, OpenMP a touch better,
// while being far less code.
const (
	cyclesPerCell        = 4
	threadsExtraPerTask  = 60
	sequentialNoOverhead = 0
)

// VirtualTiming is one approach's simulated execution.
type VirtualTiming struct {
	Approach Approach
	Threads  int
	Result   pisim.LoopResult
	// SpeedupVsSequential is this approach's makespan relative to the
	// sequential run of the same problem (1.0 for sequential itself).
	// Unlike Result.Speedup, the baseline excludes the approach's own
	// per-task overhead, so rows are directly comparable. Populated by
	// TimingTable; zero when the row was produced by RunVirtual alone.
	SpeedupVsSequential float64
}

// ligandCosts converts the ligand pool into per-task cycle costs:
// scoring ligand l against protein P costs |l|·|P| DP cells.
func ligandCosts(p Problem, extraPerTask pisim.Cycles) ([]pisim.Cycles, error) {
	ligands, err := p.Ligands()
	if err != nil {
		return nil, err
	}
	costs := make([]pisim.Cycles, len(ligands))
	for i, l := range ligands {
		costs[i] = pisim.Cycles(len(l)*len(p.Protein)*cyclesPerCell) + extraPerTask
	}
	return costs, nil
}

// RunVirtual executes the problem on the simulated Pi under the given
// approach and thread count (ignored for Sequential). Thread counts may
// exceed the machine's four cores, as the assignment's "increase the
// number of threads to 5" asks; extra threads share the cores and buy
// nothing, which is the lesson.
func RunVirtual(m *pisim.Machine, p Problem, approach Approach, threads int) (VirtualTiming, error) {
	if m == nil {
		return VirtualTiming{}, fmt.Errorf("drugdesign: nil machine")
	}
	if err := p.Validate(); err != nil {
		return VirtualTiming{}, err
	}
	switch approach {
	case Sequential:
		costs, err := ligandCosts(p, sequentialNoOverhead)
		if err != nil {
			return VirtualTiming{}, err
		}
		r, err := m.RunSequential(costs)
		if err != nil {
			return VirtualTiming{}, err
		}
		return VirtualTiming{Approach: approach, Threads: 1, Result: r}, nil
	case OMP, Threads:
		if threads < 1 {
			return VirtualTiming{}, fmt.Errorf("drugdesign: %d threads", threads)
		}
		extra := pisim.Cycles(0)
		if approach == Threads {
			extra = threadsExtraPerTask
		}
		costs, err := ligandCosts(p, extra)
		if err != nil {
			return VirtualTiming{}, err
		}
		// More software threads than cores cannot use more cores: the
		// effective parallelism is min(threads, cores).
		cfg := m.Config()
		if threads < cfg.Cores {
			cfg.Cores = threads
		}
		eff, err := pisim.NewMachine(cfg)
		if err != nil {
			return VirtualTiming{}, err
		}
		r, err := eff.RunLoop(costs, omp.Dynamic{Chunk: 1})
		if err != nil {
			return VirtualTiming{}, err
		}
		return VirtualTiming{Approach: approach, Threads: threads, Result: r}, nil
	default:
		return VirtualTiming{}, fmt.Errorf("drugdesign: unknown approach %q", approach)
	}
}

// TimingTable runs all three approaches at the given thread count and
// returns them in report order — one row of the assignment's
// "measure the running time of each implementation" table.
func TimingTable(m *pisim.Machine, p Problem, threads int) ([]VirtualTiming, error) {
	out := make([]VirtualTiming, 0, len(Approaches))
	for _, a := range Approaches {
		vt, err := RunVirtual(m, p, a, threads)
		if err != nil {
			return nil, err
		}
		out = append(out, vt)
	}
	seq := out[0].Result.Makespan
	for i := range out {
		if out[i].Result.Makespan > 0 {
			out[i].SpeedupVsSequential = float64(seq) / float64(out[i].Result.Makespan)
		}
	}
	return out, nil
}

// Fastest returns the approach with the smallest makespan.
func Fastest(rows []VirtualTiming) (VirtualTiming, error) {
	if len(rows) == 0 {
		return VirtualTiming{}, fmt.Errorf("drugdesign: empty timing table")
	}
	best := rows[0]
	for _, r := range rows[1:] {
		if r.Result.Makespan < best.Result.Makespan {
			best = r
		}
	}
	return best, nil
}

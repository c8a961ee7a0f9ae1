package core

import (
	"pblparallel/internal/fault"
	"pblparallel/internal/mpi"
	"pblparallel/internal/obs"
	"pblparallel/internal/omp"
	"pblparallel/internal/pisim"
	"pblparallel/internal/teams"
	"pblparallel/internal/teamwork"
)

// piCores is the practicum's parallelism: the Pi 3 B+'s four cores,
// used both as the MPI world size and the omp team bound.
const piCores = 4

// practicumCyclesPerEvent converts one logged activity event into
// simulated work, so the per-team event counts become the unequal
// iteration costs the scheduling lesson needs.
const practicumCyclesPerEvent = 1000

// PracticumResult reproduces the module's parallel-computing practicum
// on the study's own data: the class-wide activity total reduced over an
// MPI world, and the scheduling lesson replayed on the simulated Pi with
// each team's event volume as one loop iteration's cost.
type PracticumResult struct {
	// TotalEvents is the class-wide activity event count, computed by
	// scattering per-team counts over the ranks and allreducing the sums.
	TotalEvents int
	Ranks       int
	// Sequential/Static/Dynamic are the virtual-time loop results whose
	// comparison the scheduling assignment asks students to explain:
	// unequal team workloads make dynamic beat static.
	Sequential pisim.LoopResult
	Static     pisim.LoopResult
	Dynamic    pisim.LoopResult
}

// runPracticum executes the practicum stage. Both halves are
// deterministic: the MPI reduction is order-insensitive integer
// addition, and the Pi simulation runs in virtual time. When a fault
// injector is armed, the MPI world runs over a lossy, sequenced link
// (drops are resent, duplicates discarded by sequence number, delays
// slept through) and the simulated Pi draws per-core slowdowns — the
// results are identical either way, which is what the chaos sweep
// asserts.
func runPracticum(formation *teams.Formation, activity map[int]*teamwork.Log, inj *fault.Injector, tc obs.TraceContext) (*PracticumResult, error) {
	counts := make([]int, len(formation.Teams))
	for i, tm := range formation.Teams {
		counts[i] = len(activity[tm.ID].Events)
	}

	// Scatter needs a rank-divisible slice; zero padding keeps the sum.
	padded := append([]int(nil), counts...)
	for len(padded)%piCores != 0 {
		padded = append(padded, 0)
	}
	var total int
	if err := mpi.Run(piCores, func(c *mpi.Comm) error {
		part, err := mpi.Scatter(c, 0, padded)
		if err != nil {
			return err
		}
		local := 0
		for _, v := range part {
			local += v
		}
		sum, err := mpi.Allreduce(c, local, func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			total = sum
		}
		return nil
	}, mpi.WithTrace(tc), mpi.WithFault(inj)); err != nil {
		return nil, err
	}

	m, err := pisim.NewMachine(pisim.PaperPi3B())
	if err != nil {
		return nil, err
	}
	m = m.WithFault(inj).WithTrace(tc)
	costs := make([]pisim.Cycles, len(counts))
	for i, c := range counts {
		costs[i] = pisim.Cycles(1+c) * practicumCyclesPerEvent
	}
	seq, err := m.RunSequential(costs)
	if err != nil {
		return nil, err
	}
	static, err := m.RunLoop(costs, omp.Static{})
	if err != nil {
		return nil, err
	}
	dynamic, err := m.RunLoop(costs, omp.Dynamic{Chunk: 1})
	if err != nil {
		return nil, err
	}
	return &PracticumResult{
		TotalEvents: total,
		Ranks:       piCores,
		Sequential:  seq,
		Static:      static,
		Dynamic:     dynamic,
	}, nil
}

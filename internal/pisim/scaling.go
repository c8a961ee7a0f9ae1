package pisim

import (
	"fmt"

	"pblparallel/internal/omp"
)

// ScalingPoint is one core count's result in a scaling study.
type ScalingPoint struct {
	Cores  int
	Result LoopResult
	// Speedup is relative to the 1-core run of the same study.
	Speedup float64
	// Efficiency is Speedup / Cores.
	Efficiency float64
}

// StrongScaling runs the same workload on growing machines (1..maxCores
// with the base config's overheads) under the schedule — the classic
// fixed-problem-size curve behind "what applications benefit from
// multi-core?".
func StrongScaling(base Config, costs []Cycles, s omp.Schedule, coreCounts []int) ([]ScalingPoint, error) {
	if len(coreCounts) == 0 {
		return nil, fmt.Errorf("pisim: no core counts")
	}
	points := make([]ScalingPoint, 0, len(coreCounts))
	var oneCore Cycles
	{
		cfg := base
		cfg.Cores = 1
		m, err := NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		r, err := m.RunLoop(costs, s)
		if err != nil {
			return nil, err
		}
		oneCore = r.Makespan
	}
	for _, cores := range coreCounts {
		cfg := base
		cfg.Cores = cores
		m, err := NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		r, err := m.RunLoop(costs, s)
		if err != nil {
			return nil, err
		}
		sp := 0.0
		if r.Makespan > 0 {
			sp = float64(oneCore) / float64(r.Makespan)
		}
		points = append(points, ScalingPoint{
			Cores:      cores,
			Result:     r,
			Speedup:    sp,
			Efficiency: sp / float64(cores),
		})
	}
	return points, nil
}

// WeakScaling grows the problem with the machine: each core count runs
// perCore × cores iterations of the given cost. Ideal weak scaling
// keeps makespan flat; the returned Speedup field holds the "scaled
// speedup" (1-core makespan of the *scaled* problem over the parallel
// makespan), Gustafson's quantity.
func WeakScaling(base Config, perCore int, cost Cycles, s omp.Schedule, coreCounts []int) ([]ScalingPoint, error) {
	if perCore < 1 || cost < 0 {
		return nil, fmt.Errorf("pisim: bad weak-scaling workload (%d per core, cost %d)", perCore, cost)
	}
	if len(coreCounts) == 0 {
		return nil, fmt.Errorf("pisim: no core counts")
	}
	points := make([]ScalingPoint, 0, len(coreCounts))
	for _, cores := range coreCounts {
		costs := UniformCosts(perCore*cores, cost)
		cfg := base
		cfg.Cores = cores
		m, err := NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		r, err := m.RunLoop(costs, s)
		if err != nil {
			return nil, err
		}
		cfg1 := base
		cfg1.Cores = 1
		m1, err := NewMachine(cfg1)
		if err != nil {
			return nil, err
		}
		r1, err := m1.RunLoop(costs, s)
		if err != nil {
			return nil, err
		}
		sp := 0.0
		if r.Makespan > 0 {
			sp = float64(r1.Makespan) / float64(r.Makespan)
		}
		points = append(points, ScalingPoint{
			Cores:      cores,
			Result:     r,
			Speedup:    sp,
			Efficiency: sp / float64(cores),
		})
	}
	return points, nil
}

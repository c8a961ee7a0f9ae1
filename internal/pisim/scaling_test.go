package pisim

import (
	"testing"

	"pblparallel/internal/omp"
)

func TestStrongScalingCurve(t *testing.T) {
	costs := UniformCosts(4096, 1000)
	points, err := StrongScaling(PaperPi3B(), costs, omp.Static{}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	// Speedup increases with cores but efficiency decreases (overheads
	// and contention) — the textbook shape.
	for i := 1; i < len(points); i++ {
		if points[i].Speedup <= points[i-1].Speedup {
			t.Fatalf("speedup not increasing: %+v", points)
		}
		if points[i].Efficiency >= points[i-1].Efficiency {
			t.Fatalf("efficiency not decreasing: %+v", points)
		}
	}
	// 1-core speedup is exactly 1 by construction.
	if points[0].Cores != 1 || points[0].Speedup != 1 {
		t.Fatalf("baseline point %+v", points[0])
	}
	// Sub-linear: 8 cores deliver less than 8x.
	last := points[len(points)-1]
	if last.Speedup >= float64(last.Cores) {
		t.Fatalf("superlinear speedup %v on %d cores", last.Speedup, last.Cores)
	}
}

func TestWeakScalingFlatMakespan(t *testing.T) {
	points, err := WeakScaling(PaperPi3B(), 256, 1000, omp.Static{}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Makespan stays within the contention factor of flat.
	base := float64(points[0].Result.Makespan)
	for _, p := range points[1:] {
		ratio := float64(p.Result.Makespan) / base
		if ratio < 1.0 || ratio > 1.25 {
			t.Fatalf("weak-scaling makespan ratio %v at %d cores", ratio, p.Cores)
		}
	}
	// Gustafson speedup grows nearly linearly.
	for i := 1; i < len(points); i++ {
		if points[i].Speedup <= points[i-1].Speedup {
			t.Fatalf("scaled speedup not growing: %+v", points)
		}
	}
}

func TestScalingValidation(t *testing.T) {
	if _, err := StrongScaling(PaperPi3B(), UniformCosts(4, 1), omp.Static{}, nil); err == nil {
		t.Fatal("empty core list accepted")
	}
	if _, err := StrongScaling(PaperPi3B(), UniformCosts(4, 1), nil, []int{1}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := StrongScaling(PaperPi3B(), UniformCosts(4, 1), omp.Static{}, []int{0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := WeakScaling(PaperPi3B(), 0, 1, omp.Static{}, []int{1}); err == nil {
		t.Fatal("zero per-core accepted")
	}
	if _, err := WeakScaling(PaperPi3B(), 4, -1, omp.Static{}, []int{1}); err == nil {
		t.Fatal("negative cost accepted")
	}
	if _, err := WeakScaling(PaperPi3B(), 4, 1, omp.Static{}, nil); err == nil {
		t.Fatal("empty core list accepted")
	}
}

func TestStrongScalingAmdahlCeiling(t *testing.T) {
	// A workload with one giant iteration (a serial fraction) caps the
	// speedup no matter the cores: Amdahl's law in the simulator.
	costs := UniformCosts(1000, 100)
	costs[0] = 50000 // the serial chunk: half the total work
	points, err := StrongScaling(PaperPi3B(), costs, omp.Dynamic{Chunk: 1}, []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	// Total work 150k, serial 50k → speedup bound 3.
	if last.Speedup > 3.0 {
		t.Fatalf("speedup %v beats the Amdahl bound", last.Speedup)
	}
	if last.Speedup < 1.5 {
		t.Fatalf("speedup %v implausibly low", last.Speedup)
	}
}

package pisim

import (
	"container/heap"
	"fmt"
	"sync/atomic"

	"pblparallel/internal/obs"
	"pblparallel/internal/omp"
)

// loopSeq allocates trace lanes: each traced loop simulation claims a
// block of cores+1 lanes (one for the loop span, one per simulated
// core) so concurrent simulations render on disjoint Perfetto tracks.
// Only bumped when a tracer is installed.
var loopSeq atomic.Uint32

// loopsRun counts simulated loops process-wide.
var loopsRun = obs.Metrics().Counter("pisim_loops_total",
	"Work-sharing loops simulated (RunLoop and RunSequential).")

// LoopResult reports one simulated work-sharing loop.
type LoopResult struct {
	// Policy is the schedule's Name, or "sequential" for RunSequential.
	Policy string
	Cores  int
	// Makespan is the virtual time from fork to after the barrier.
	Makespan Cycles
	// CoreBusy is each core's busy time (work + dispatch overhead).
	CoreBusy []Cycles
	// SequentialCost is the uncontended single-core cost of the same
	// iterations (no dispatch overhead, no barrier): the baseline for
	// Speedup.
	SequentialCost Cycles
	// Chunks is the number of dispatch units issued.
	Chunks int
}

// Speedup is sequential cost over parallel makespan.
func (r LoopResult) Speedup() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.SequentialCost) / float64(r.Makespan)
}

// Efficiency is speedup per core.
func (r LoopResult) Efficiency() float64 { return r.Speedup() / float64(r.Cores) }

// LoadImbalance is (max-min)/max of core busy times; 0 is perfect.
func (r LoopResult) LoadImbalance() float64 {
	if len(r.CoreBusy) == 0 {
		return 0
	}
	min, max := r.CoreBusy[0], r.CoreBusy[0]
	for _, b := range r.CoreBusy[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return float64(max-min) / float64(max)
}

// coreHeap orders cores by availability time (ties by index for
// determinism).
type coreHeap []coreState

type coreState struct {
	id   int
	free Cycles
}

func (h coreHeap) Len() int { return len(h) }
func (h coreHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h coreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)   { *h = append(*h, x.(coreState)) }

// Pop drops the retired core without returning it, so retiring a core
// does not box its state.
func (h *coreHeap) Pop() any { *h = (*h)[:len(*h)-1]; return nil }

// RunLoop simulates a work-sharing loop whose iteration i costs costs[i]
// cycles under the schedule and returns the virtual-time result. It
// replays the schedule's own omp dispatcher: the earliest-free core (ties
// to the lowest id) asks it for that core's next chunk, runs it in
// virtual time, and retires once the dispatcher has none left for it.
func (m *Machine) RunLoop(costs []Cycles, s omp.Schedule) (LoopResult, error) {
	for i, c := range costs {
		if c < 0 {
			return LoopResult{}, fmt.Errorf("pisim: negative cost at iteration %d", i)
		}
	}
	cores := m.cfg.Cores
	next, err := omp.NewDispatcher(s, len(costs), cores)
	if err != nil {
		return LoopResult{}, err
	}
	factor := m.contentionFactor(cores)
	loopsRun.Inc()

	// Tracing maps the simulation's virtual clock onto trace timelines:
	// every chunk becomes a span on its core's lane at the cycle-accurate
	// start/duration (converted to wall time at the machine's clock), so
	// Perfetto shows the schedule exactly as the model computed it —
	// including the idle tails that make load imbalance visible.
	tr := obs.Default()
	var base uint32
	if tr != nil {
		base = loopSeq.Add(uint32(cores)+1) - uint32(cores)
	}
	laneOf := func(core int) uint32 { return base + 1 + uint32(core) }
	// Injected per-core slowdowns (nil when fault injection is off): the
	// multiplier stretches every chunk the core executes, in virtual
	// time, without touching any other core's schedule.
	slow := m.coreSlowdowns(cores, laneOf)
	// Prefix sums for O(1) chunk cost.
	prefix := make([]Cycles, len(costs)+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	busy := make([]Cycles, cores)
	h := make(coreHeap, cores) // all free at 0 in id order: already a heap
	for i := range h {
		h[i] = coreState{id: i}
	}
	chunks := 0
	for len(h) > 0 {
		c := h[0]
		start, n := next.Next(c.id)
		if n == 0 {
			heap.Pop(&h)
			continue
		}
		f := factor
		if slow != nil {
			f *= slow[c.id]
		}
		cost := Cycles(float64(prefix[start+n]-prefix[start])*f) + m.cfg.DispatchOverhead
		if tr != nil {
			tr.SpanAt(obs.PIDPisim, laneOf(c.id), "pisim", "chunk", m.Duration(c.free)).
				Trace(m.tc).
				Int("iter_start", int64(start)).Int("iter_len", int64(n)).
				Int("cycles", int64(cost)).
				EndAt(m.Duration(cost))
		}
		c.free += cost
		busy[c.id] = c.free
		h[0] = c
		heap.Fix(&h, 0)
		chunks++
	}
	var maxBusy Cycles
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	makespan := maxBusy + m.cfg.BarrierCost
	name := s.Name()
	if tr != nil {
		for id, b := range busy {
			if b < maxBusy {
				tr.SpanAt(obs.PIDPisim, laneOf(id), "pisim", "idle", m.Duration(b)).
					Trace(m.tc).EndAt(m.Duration(maxBusy - b))
			}
			tr.SpanAt(obs.PIDPisim, laneOf(id), "pisim", "barrier", m.Duration(maxBusy)).
				Trace(m.tc).EndAt(m.Duration(m.cfg.BarrierCost))
		}
		tr.SpanAt(obs.PIDPisim, base, "pisim", "loop."+name, 0).
			Trace(m.tc).
			Int("cores", int64(cores)).Int("chunks", int64(chunks)).
			Int("makespan_cycles", int64(makespan)).
			EndAt(m.Duration(makespan))
	}
	return LoopResult{
		Policy:         name,
		Cores:          cores,
		Makespan:       makespan,
		CoreBusy:       busy,
		SequentialCost: prefix[len(costs)],
		Chunks:         chunks,
	}, nil
}

// RunSequential simulates the same iterations on one core with no
// parallel machinery: the "sequential computation" baseline of
// Assignment 2.
func (m *Machine) RunSequential(costs []Cycles) (LoopResult, error) {
	var total Cycles
	for i, c := range costs {
		if c < 0 {
			return LoopResult{}, fmt.Errorf("pisim: negative cost at iteration %d", i)
		}
		total += c
	}
	loopsRun.Inc()
	if tr := obs.Default(); tr != nil {
		lane := loopSeq.Add(1)
		tr.SpanAt(obs.PIDPisim, lane, "pisim", "loop.sequential", 0).
			Trace(m.tc).
			Int("iters", int64(len(costs))).Int("makespan_cycles", int64(total)).
			EndAt(m.Duration(total))
	}
	return LoopResult{
		Policy:         "sequential",
		Cores:          1,
		Makespan:       total,
		CoreBusy:       []Cycles{total},
		SequentialCost: total,
		Chunks:         1,
	}, nil
}

// UniformCosts builds n iterations of the same cost.
func UniformCosts(n int, cost Cycles) []Cycles {
	out := make([]Cycles, n)
	for i := range out {
		out[i] = cost
	}
	return out
}

// SkewedCosts builds n iterations whose cost grows linearly from base to
// base+slope*(n-1): the triangular workload the scheduling patternlet
// uses to show why dynamic beats static when iterations are unequal.
func SkewedCosts(n int, base, slope Cycles) []Cycles {
	out := make([]Cycles, n)
	for i := range out {
		out[i] = base + slope*Cycles(i)
	}
	return out
}

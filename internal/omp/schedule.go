package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/sched"
)

// Schedule chooses how a parallel-for's iteration range is mapped onto
// the team — the subject of the course's Assignment 3 ("Scheduling of
// Parallel Loops"). It is the one definition of each schedule: For runs
// it on goroutines and pisim replays the same dispatcher in virtual
// time.
type Schedule interface {
	// Name is the schedule in OpenMP clause spelling ("static",
	// "static,2", "dynamic,1", "guided,1", "steal,4"), as traces,
	// results and bench labels show it.
	Name() string
	// dispatcher validates the schedule and builds its dispatcher for
	// count iterations on a team of threads.
	dispatcher(count, threads int) (Dispatcher, error)
}

// Dispatcher hands out one loop's iterations: Next(tid) returns team
// member tid's next chunk [start, start+n) of [0, count), and n == 0
// once tid has nothing left. Calls for one tid must be sequential;
// different tids may call concurrently. Every index is handed out
// exactly once, in whatever order the members call.
type Dispatcher interface {
	Next(tid int) (start, n int)
}

// NewDispatcher builds the dispatcher of schedule s for a loop of count
// iterations on a team of threads.
func NewDispatcher(s Schedule, count, threads int) (Dispatcher, error) {
	if s == nil {
		return nil, fmt.Errorf("omp: nil schedule")
	}
	if count < 0 || threads < 1 {
		return nil, fmt.Errorf("omp: loop of %d iterations on %d threads", count, threads)
	}
	return s.dispatcher(count, threads)
}

// clampChunk rejects a chunk size below 1 and clamps one above the loop
// count down to it, so no chunk arithmetic can overflow.
func clampChunk(what string, chunk, count int) (int, error) {
	if chunk < 1 {
		return 0, fmt.Errorf("omp: %s %d < 1", what, chunk)
	}
	return min(chunk, max(count, 1)), nil
}

// Static is OpenMP's default schedule: the range is split into one
// near-equal contiguous block per thread ("threads iterate through equal
// sized chunks of the index range").
type Static struct{}

// Name implements Schedule.
func (Static) Name() string { return "static" }

func (Static) dispatcher(count, threads int) (Dispatcher, error) {
	return &static{count: count, threads: threads, claimed: make([]int, threads)}, nil
}

// StaticChunk deals fixed-size chunks round-robin: chunk 0 to thread 0,
// chunk 1 to thread 1, … — schedule(static, chunkSize).
type StaticChunk struct{ Chunk int }

// Name implements Schedule.
func (s StaticChunk) Name() string { return fmt.Sprintf("static,%d", s.Chunk) }

func (s StaticChunk) dispatcher(count, threads int) (Dispatcher, error) {
	c, err := clampChunk("static chunk", s.Chunk, count)
	if err != nil {
		return nil, err
	}
	return &static{count: count, chunk: c, threads: threads, claimed: make([]int, threads)}, nil
}

// static computes thread tid's k-th chunk from (tid, k) alone: with
// chunk 0 (Static) the only chunk is tid's near-equal block, the first
// count%threads threads taking one extra index; otherwise (StaticChunk)
// it is global chunk k·threads+tid.
type static struct {
	count, chunk, threads int
	claimed               []int // claimed[tid]: chunks tid has taken; only tid touches it
}

func (d *static) Next(tid int) (start, n int) {
	k := d.claimed[tid]
	if d.chunk == 0 {
		if k > 0 {
			return 0, 0
		}
		d.claimed[tid] = 1
		base, extra := d.count/d.threads, d.count%d.threads
		start = tid*base + min(tid, extra)
		if tid < extra {
			return start, base + 1
		}
		return start, base
	}
	// Chunk j = k·threads+tid exists while j < chunks. Written as a
	// bound on k the test cannot overflow, and an existing j has
	// j·chunk < count.
	chunks := 0
	if d.count > 0 {
		chunks = (d.count-1)/d.chunk + 1
	}
	if tid >= chunks || k > (chunks-1-tid)/d.threads {
		return 0, 0
	}
	d.claimed[tid] = k + 1
	start = (k*d.threads + tid) * d.chunk
	return start, min(d.chunk, d.count-start)
}

// Dynamic hands out chunks first-come-first-served from a shared
// counter — schedule(dynamic, chunkSize).
type Dynamic struct{ Chunk int }

// Name implements Schedule.
func (s Dynamic) Name() string { return fmt.Sprintf("dynamic,%d", s.Chunk) }

func (s Dynamic) dispatcher(count, _ int) (Dispatcher, error) {
	c, err := clampChunk("dynamic chunk", s.Chunk, count)
	if err != nil {
		return nil, err
	}
	return &ticket{count: count, chunk: c}, nil
}

// Guided hands out chunks proportional to the remaining work divided by
// the team size, shrinking toward MinChunk — schedule(guided, minChunk).
type Guided struct{ MinChunk int }

// Name implements Schedule.
func (s Guided) Name() string { return fmt.Sprintf("guided,%d", s.MinChunk) }

func (s Guided) dispatcher(count, threads int) (Dispatcher, error) {
	c, err := clampChunk("guided min chunk", s.MinChunk, count)
	if err != nil {
		return nil, err
	}
	return &ticket{count: count, chunk: c, div: 2 * threads}, nil
}

// ticket is Dynamic's and Guided's dispatcher: one shared ticket, the
// first unclaimed index, that whichever member calls first advances by
// CAS. Dynamic claims chunk indices at a time; Guided (div = 2·threads)
// claims remaining/div, floored at chunk. A claim never passes count,
// so the ticket cannot overflow.
type ticket struct {
	count, chunk, div int
	next              atomic.Int64
}

func (d *ticket) Next(int) (start, n int) {
	for {
		start = int(d.next.Load())
		left := d.count - start
		if left <= 0 {
			return 0, 0
		}
		n = d.chunk
		if d.div > 0 {
			n = max(n, left/d.div)
		}
		n = min(n, left)
		if d.next.CompareAndSwap(int64(start), int64(start+n)) {
			return start, n
		}
	}
}

// Steal distributes the range as one contiguous share per thread and
// lets threads that finish early steal the upper half of the largest
// remaining share — the work-stealing counterpart to Dynamic, with
// contiguous locality like Static. Chunk is the claim granularity;
// shares always split on absolute Chunk boundaries, so the set of
// chunk starts (the fault-injection keys) is identical at every team
// size and under every steal interleaving. Its dispatcher is a
// *sched.IndexPool.
type Steal struct{ Chunk int }

// Name implements Schedule.
func (s Steal) Name() string { return fmt.Sprintf("steal,%d", s.Chunk) }

func (s Steal) dispatcher(count, threads int) (Dispatcher, error) {
	if s.Chunk < 1 {
		return nil, fmt.Errorf("omp: steal chunk %d < 1", s.Chunk)
	}
	if count > sched.MaxIndexCount {
		return nil, fmt.Errorf("omp: steal loop of %d iterations exceeds %d", count, sched.MaxIndexCount)
	}
	return sched.NewIndexPool(count, threads, s.Chunk), nil
}

// loop is one work-sharing loop's entry in the team's loop table, keyed
// by per-thread loop epoch: the dispatcher every member claims chunks
// from, built once by whichever member arrives first, the number of
// members that have taken the entry, and ForOrdered's turn, the next
// iteration (counted from lo) whose ordered section may run.
type loop struct {
	epoch int
	next  Dispatcher
	taken int // under team.loopMu
	mu    sync.Mutex
	cond  sync.Cond // on mu; signals turn advancing
	turn  int
}

// nextLoop returns the entry of this thread's next work-sharing loop
// and consumes its epoch, building the dispatcher if this thread is the
// first to arrive. The last member to arrive removes the entry from the
// table; the members keep their pointer to it.
func (tc *ThreadContext) nextLoop(lo, hi int, s Schedule) (*loop, error) {
	if hi < lo {
		return nil, fmt.Errorf("omp: for range [%d,%d) is inverted", lo, hi)
	}
	tm := tc.team
	tm.loopMu.Lock()
	defer tm.loopMu.Unlock()
	l, ok := tm.loops[tc.loopCount]
	if !ok {
		d, err := NewDispatcher(s, hi-lo, tm.n)
		if err != nil {
			return nil, err
		}
		l = &loop{epoch: tc.loopCount, next: d}
		l.cond.L = &l.mu
	}
	l.taken++
	switch {
	case l.taken == tm.n:
		delete(tm.loops, l.epoch)
	case !ok:
		if tm.loops == nil {
			tm.loops = make(map[int]*loop)
		}
		tm.loops[l.epoch] = l
	}
	tc.loopCount++
	return l, nil
}

// For is the work-sharing loop: iterations lo..hi-1 are distributed over
// the team per the schedule, body is invoked once per iteration with the
// global index, and the team joins at an implicit end-of-loop barrier
// (OpenMP's default; there is no nowait clause here). Every team member
// must call For with identical arguments.
func (tc *ThreadContext) For(lo, hi int, s Schedule, body func(i int)) error {
	l, err := tc.nextLoop(lo, hi, s)
	if err != nil {
		return err
	}
	return tc.run(l, lo, hi, s, body)
}

// run claims l's chunks for this thread until the dispatcher has none
// left, calls body on each global index, and joins the team barrier.
func (tc *ThreadContext) run(l *loop, lo, hi int, s Schedule, body func(i int)) error {
	// When tracing, the thread's share of the loop is one span and each
	// claimed chunk a child span — the scheduling patternlet's chunk
	// assignment, readable straight off the timeline.
	tr := obs.Default()
	var lsp obs.Span
	if tr != nil {
		lsp = tr.Span(obs.PIDOMP, tc.lane, "omp", "for."+s.Name()).
			Trace(tc.trace).Int("count", int64(hi-lo))
	}
	for {
		start, length := l.next.Next(tc.tid)
		if length == 0 {
			break
		}
		// Chunk-claim fault site, keyed by (loop epoch, chunk start):
		// whichever thread claims the chunk draws the same decision, so
		// injections are scheduling-independent even under dynamic,
		// guided, and steal schedules (steal claims always start on
		// absolute chunk boundaries, so the key set is stable).
		tc.maybeFault(fault.SiteOMPFor, fault.Mix2(uint64(l.epoch), uint64(lo+start)))
		if tr != nil {
			csp := tr.Span(obs.PIDOMP, tc.lane, "omp", "chunk").
				Trace(tc.trace).Int("start", int64(lo+start)).Int("len", int64(length))
			for i := start; i < start+length; i++ {
				body(lo + i)
			}
			csp.End()
			continue
		}
		for i := start; i < start+length; i++ {
			body(lo + i)
		}
	}
	lsp.End()
	return tc.Barrier()
}

// ForCollect reports which indices this thread's For call claims
// without executing a body; exposed for the scheduling patternlet's
// visualization of chunk assignment ("map threads to parallel loop
// iterations in chunks of size one, two, and three").
func (tc *ThreadContext) ForCollect(lo, hi int, sched Schedule) ([]int, error) {
	var mine []int
	err := tc.For(lo, hi, sched, func(i int) { mine = append(mine, i) })
	return mine, err
}

// Package omp is a small OpenMP-like shared-memory runtime on top of
// goroutines. It provides the constructs the course's patternlets
// exercise: fork-join parallel regions with a thread team, work-sharing
// parallel-for loops with static, static-chunked, dynamic, guided, and
// work-stealing schedules, reductions with deterministic combine order,
// barriers, critical sections, single/master blocks, sections, and
// locks.
//
// The analogy is structural, not syntactic: an OpenMP "#pragma omp
// parallel" becomes omp.Parallel(func(tc *omp.ThreadContext) { ... }),
// and the clauses become methods on the ThreadContext. Variables declared
// inside the closure are private; captured variables are shared — the
// same scoping rule OpenMP teaches, which is why the data-race patternlet
// translates directly.
package omp

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// laneSeq allocates trace lanes: each traced parallel region claims a
// block of n+1 lanes (one for the region span, one per thread), so
// concurrent regions render on disjoint Perfetto tracks. Only bumped
// when a tracer is installed.
var laneSeq atomic.Uint32

// Runtime counters, cached from the process registry at init.
var (
	regionsStarted = obs.Metrics().Counter("omp_parallel_regions_total",
		"Parallel regions forked.")
	threadPanics = obs.Metrics().Counter("omp_thread_panics_total",
		"Team members that exited a region by panicking.")
)

// DefaultNumThreads mirrors omp_get_max_threads(): the value used when a
// region does not request an explicit team size. Like a real OpenMP
// runtime it honours OMP_NUM_THREADS when set to a positive integer and
// otherwise uses the available parallelism.
func DefaultNumThreads() int {
	if env := os.Getenv("OMP_NUM_THREADS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// config collects the clauses of a parallel region.
type config struct {
	numThreads int
	inj        *fault.Injector
	tc         obs.TraceContext
}

// Option configures a parallel region, playing the role of OpenMP
// clauses and environment variables.
type Option func(*config)

// WithNumThreads sets the team size, like num_threads(n) /
// OMP_NUM_THREADS. Values below 1 are rejected at region entry.
func WithNumThreads(n int) Option {
	return func(c *config) { c.numThreads = n }
}

// WithTrace joins the region's spans (region, threads, barriers,
// work-sharing chunks) to a request trace, so an HTTP request's span
// tree reaches into the fork-join runtime.
func WithTrace(tc obs.TraceContext) Option {
	return func(c *config) { c.tc = tc }
}

// RegionPanicError wraps a panic raised inside a team member so the
// fork-join caller sees it as an error instead of a crashed goroutine.
type RegionPanicError struct {
	ThreadNum int
	Value     any
}

// Error describes the failed thread.
func (e *RegionPanicError) Error() string {
	return fmt.Sprintf("omp: thread %d panicked: %v", e.ThreadNum, e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so
// injected-fault panics (*fault.Injected) classify as transient through
// the region error chain.
func (e *RegionPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Parallel runs body on every member of a freshly forked team and joins
// them all before returning — the fork-join patternlet. body receives the
// thread's context (thread number, team size, and the work-sharing and
// synchronization constructs). As in OpenMP, every explicit task the
// region created, awaited or not, has run when Parallel returns.
//
// If any team member panics, Parallel recovers the panic, lets the other
// members finish, and returns a *RegionPanicError for the lowest-numbered
// failed thread.
func Parallel(body func(tc *ThreadContext), opts ...Option) error {
	cfg := config{numThreads: DefaultNumThreads()}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := cfg.numThreads
	if n < 1 {
		return fmt.Errorf("omp: num_threads %d < 1", n)
	}
	tm := &team{
		n:        n,
		barrier:  NewBarrier(n),
		critical: make(map[string]*sync.Mutex),
		inj:      cfg.inj,
	}
	regionsStarted.Inc()

	// Tracing: the region span sits on the block's base lane, each team
	// member on base+1+tid. tr is nil when disabled and every span call
	// is then an inert value operation.
	tr := obs.Default()
	var base uint32
	if tr != nil {
		base = laneSeq.Add(uint32(n)+1) - uint32(n)
	}
	regionSpan := tr.Span(obs.PIDOMP, base, "omp", "parallel").Trace(cfg.tc).Int("threads", int64(n))
	regionTC := regionSpan.TraceCtx()
	tm.barrier.tc = regionTC

	panics := make([]*RegionPanicError, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for tid := 0; tid < n; tid++ {
		go func(tid int) {
			defer wg.Done()
			lane := base + 1 + uint32(tid)
			tsp := tr.Span(obs.PIDOMP, lane, "omp", "thread").Trace(regionTC).Int("tid", int64(tid))
			defer tsp.End()
			defer func() {
				if r := recover(); r != nil {
					panics[tid] = &RegionPanicError{ThreadNum: tid, Value: r}
					threadPanics.Inc()
					tr.Span(obs.PIDOMP, lane, "omp", "panic").Trace(regionTC).Int("tid", int64(tid)).Emit()
					// A panicked member can no longer reach barriers;
					// poison them so siblings don't deadlock.
					tm.barrier.Break()
				}
			}()
			tc := &ThreadContext{tid: tid, team: tm, lane: lane, trace: tsp.TraceCtx()}
			body(tc)
			tc.drainTasks()
		}(tid)
	}
	wg.Wait()
	regionSpan.End()
	for _, p := range panics {
		if p != nil {
			// An injected panic is a simulated hardware failure, not a
			// program bug: the barriers it poisoned released every
			// sibling, so the region degraded gracefully instead of
			// deadlocking. Report it as the broken barrier wrapping the
			// injected (transient) cause; real panics keep their
			// historical error shape.
			if inj, ok := p.Value.(*fault.Injected); ok && inj != nil {
				return fmt.Errorf("%w: %w", ErrBarrierBroken, p)
			}
			return p
		}
	}
	return nil
}

// team is the shared state of one parallel region.
type team struct {
	n       int
	barrier *Barrier
	inj     *fault.Injector

	mu       sync.Mutex
	critical map[string]*sync.Mutex

	// single / sections / loop bookkeeping, keyed by per-thread call
	// epoch. Each entry counts the members that have taken it, and the
	// n-th deletes it, so the tables hold only constructs some member
	// has yet to reach.
	singleMu       sync.Mutex
	singleArrivals map[int]int
	sectionsMu     sync.Mutex
	sectionTickets map[int]*sectionTicket
	loopMu         sync.Mutex
	loops          map[int]*loop // work-sharing loops by epoch; see ThreadContext.nextLoop
	tasks          *taskPool     // lazily created under mu by pool()
}

// criticalFor returns the mutex guarding the named critical section,
// creating it on first use (OpenMP's named criticals).
func (tm *team) criticalFor(name string) *sync.Mutex {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	m, ok := tm.critical[name]
	if !ok {
		m = &sync.Mutex{}
		tm.critical[name] = m
	}
	return m
}

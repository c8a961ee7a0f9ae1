// Package sched is the work-stealing task runtime shared by the
// engine, the omp layer, and the HTTP daemon. One Runtime owns a
// fixed set of worker goroutines; work reaches them three ways:
//
//   - Submit / SubmitWait: jobs through a bounded admission queue
//     (the HTTP daemon admits every computation with SubmitWait).
//   - ParallelIndexed: data-parallel regions over an index range,
//     distributed through a range-stealing IndexPool. The caller
//     always participates, so a region finishes even when every
//     runtime worker is busy or the runtime is closed — workers are
//     accelerators, never a liveness dependency.
//   - Do / TaskCtx.Join: recursive fork-join task trees on per-worker
//     Chase–Lev deques (LIFO owner pop, FIFO steal).
//
// Determinism is by construction: a region's output slots are indexed
// by i and each i's work is a pure function of i, so which worker
// claims which chunk — and in what order — can never change result
// bytes. Stealing moves indices between workers; it cannot reorder
// what lands in slot i.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// The admission errors Submit and SubmitWait return; match them with errors.Is.
var (
	// ErrQueueFull rejects a Submit because the bounded queue is at
	// capacity — shedding at admission instead of queueing unboundedly.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrClosed rejects work submitted after Close.
	ErrClosed = errors.New("sched: runtime closed")
)

// Options configure a Runtime.
type Option func(*config)

type config struct {
	workers int
	queue   int
}

// WithWorkers sets the number of worker goroutines (default
// runtime.NumCPU, minimum 1).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithQueueDepth bounds the Submit admission queue (default 0: every
// Submit that finds no idle capacity is shed immediately).
func WithQueueDepth(n int) Option { return func(c *config) { c.queue = n } }

// Stats is a point-in-time runtime snapshot. Queued and InFlight come
// from one packed atomic word, so the pair is mutually consistent:
// InFlight never reads above Workers and Queued never above QueueCap,
// even while the hammer is running.
type Stats struct {
	Workers   int
	QueueCap  int
	Queued    int
	InFlight  int
	Submitted int64
	Shed      int64
	Completed int64
	// Steals counts successful task-deque steals; RangeSteals counts
	// index-range steals inside ParallelIndexed regions.
	Steals      int64
	RangeSteals int64
	Spawned     int64
	Inlined     int64
}

// worker is one runtime-owned execution lane. stats points at the
// participant's counter block: runtime workers own a private block,
// temporarily attached participants (Do callers) share the runtime's
// external block so their counts survive detach.
type worker struct {
	id     int
	deque  *deque
	parked atomic.Bool
	wake   chan struct{}
	stats  *workerStats
}

func newWorker(id int) *worker {
	return &worker{id: id, deque: newDeque(), wake: make(chan struct{}, 1), stats: &workerStats{}}
}

// Runtime is the scheduler. The zero value is not usable; construct
// with New. A nil *Runtime is accepted everywhere and degrades to
// caller-only (sequential) execution, so callers can thread an
// optional runtime without nil checks.
type Runtime struct {
	workers []*worker
	// all holds workers plus temporarily attached participants (Do
	// callers); copy-on-write so thieves scan it without locks.
	all atomic.Pointer[[]*worker]

	submitq chan submission
	// handoff is the unbuffered direct lane: when the queue is full —
	// or has zero capacity — a Submit still succeeds if some worker is
	// parked in receive at that instant, preserving the classic
	// zero-queue pool semantics ("find an idle worker now or shed").
	// It is never closed; Close fences Submits with the closed flag.
	handoff chan submission
	// qstate packs queued<<32 | inflight for consistent snapshots.
	qstate      PaddedUint64
	submitted   PaddedInt64
	shed        PaddedInt64
	completed   PaddedInt64
	rangeSteals PaddedInt64
	tempSeq     atomic.Int64
	// external is the shared stat block of non-worker participants:
	// attached Do callers and the calling goroutine of ParallelIndexed
	// regions (slot 0).
	external workerStats

	// regions is the copy-on-write list of active indexed regions.
	regions atomic.Pointer[[]*region]

	mu     sync.RWMutex // guards closed vs Submit/close(submitq)
	closed bool
	wg     sync.WaitGroup

	cfg config
}

// New builds and starts a Runtime.
func New(opts ...Option) *Runtime {
	cfg := config{workers: runtime.NumCPU()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queue < 0 {
		cfg.queue = 0
	}
	r := &Runtime{
		submitq: make(chan submission, cfg.queue),
		handoff: make(chan submission),
		cfg:     cfg,
	}
	r.workers = make([]*worker, cfg.workers)
	for i := range r.workers {
		r.workers[i] = newWorker(i)
	}
	all := append([]*worker(nil), r.workers...)
	r.all.Store(&all)
	empty := []*region{}
	r.regions.Store(&empty)
	r.wg.Add(cfg.workers)
	for _, w := range r.workers {
		go r.workerLoop(w)
	}
	return r
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the shared process-wide runtime (NumCPU workers),
// created on first use and never closed. The engine falls back to it
// when no explicit runtime is configured.
func Default() *Runtime {
	defaultOnce.Do(func() { defaultRT = New() })
	return defaultRT
}

// Workers reports the worker count (0 for a nil runtime).
func (r *Runtime) Workers() int {
	if r == nil {
		return 0
	}
	return len(r.workers)
}

// submission is a submitted job; done, if set, is closed once fn has
// returned and been counted, so its waiter sees it completed in Stats.
type submission struct {
	fn   func()
	done chan struct{}
}

// Submit enqueues job for asynchronous execution. It never blocks:
// when the bounded queue is full the job is shed with ErrQueueFull,
// and after Close it fails with ErrClosed.
func (r *Runtime) Submit(job func()) error { return r.submit(submission{fn: job}) }

// SubmitWait submits job as Submit does and waits until it has run and
// been counted: after a nil return, Stats and Introspect show it completed.
// If ctx ends first it returns ctx.Err(), and the job still runs.
func (r *Runtime) SubmitWait(ctx context.Context, job func()) error {
	done := make(chan struct{})
	if err := r.submit(submission{fn: job, done: done}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runtime) submit(job submission) error {
	if r == nil {
		return ErrClosed
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	cap64 := uint64(cap(r.submitq))
	for {
		s := r.qstate.Load()
		if s>>32 >= cap64 {
			// Queue full (or zero-length): accept only if a parked
			// worker is ready to take the job this instant.
			select {
			case r.handoff <- job:
				r.submitted.Add(1)
				return nil
			default:
				r.shed.Add(1)
				return ErrQueueFull
			}
		}
		if r.qstate.CompareAndSwap(s, s+1<<32) {
			break
		}
	}
	// The increment reserved a buffer slot, so this send cannot block.
	r.submitq <- job
	r.submitted.Add(1)
	r.wakeOne()
	return nil
}

// Close drains the queue — already-admitted jobs still run — waits
// for in-flight work, and stops the workers. Further Submits fail
// with ErrClosed; indexed regions and task trees keep working on the
// caller's goroutine after Close.
func (r *Runtime) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	close(r.submitq)
	r.mu.Unlock()
	r.wakeAll()
	r.wg.Wait()
}

// Stats snapshots the runtime counters. Steals, Spawned, and Inlined
// aggregate the per-worker stat blocks (plus the shared external block
// of attached participants); Introspect exposes the same counters
// without the folding.
func (r *Runtime) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	s := r.qstate.Load()
	lo, hi := int(s&0xffffffff), int(s>>32)
	rangeSteals := r.rangeSteals.Load()
	for _, reg := range *r.regions.Load() {
		rangeSteals += reg.pool.Steals()
	}
	st := Stats{
		Workers:     len(r.workers),
		QueueCap:    cap(r.submitq),
		Queued:      hi,
		InFlight:    lo,
		Submitted:   r.submitted.Load(),
		Shed:        r.shed.Load(),
		Completed:   r.completed.Load(),
		RangeSteals: rangeSteals,
	}
	for _, w := range r.workers {
		st.Steals += w.stats.steals.Load()
		st.Spawned += w.stats.spawned.Load()
		st.Inlined += w.stats.inlined.Load()
	}
	st.Steals += r.external.steals.Load()
	st.Spawned += r.external.spawned.Load()
	st.Inlined += r.external.inlined.Load()
	return st
}

// workerLoop is one worker's scheduling loop: own deque first (LIFO),
// then region index work, then stealing from siblings, then the
// submit queue, then park.
func (r *Runtime) workerLoop(w *worker) {
	defer r.wg.Done()
	for {
		if r.runOwn(w) || r.runRegion(w) || r.runStolen(w) {
			continue
		}
		select {
		case job, ok := <-r.submitq:
			if !ok {
				return // closed and drained
			}
			r.runQueued(job)
			continue
		default:
		}
		// Nothing visible: publish parked, recheck (a producer that
		// made work visible before seeing parked=true will be caught
		// by this recheck; one that saw it will send a wake token).
		// Park/unpark counts live on the idle path only, so the stat
		// writes cost nothing while the worker has work.
		w.parked.Store(true)
		w.stats.parks.Add(1)
		if r.workVisible(w) {
			w.parked.Store(false)
			w.stats.unparks.Add(1)
			continue
		}
		select {
		case job, ok := <-r.submitq:
			w.parked.Store(false)
			w.stats.unparks.Add(1)
			if !ok {
				return
			}
			r.runQueued(job)
		case job := <-r.handoff:
			w.parked.Store(false)
			w.stats.unparks.Add(1)
			r.runDirect(job)
		case <-w.wake:
			w.parked.Store(false)
			w.stats.unparks.Add(1)
		}
	}
}

// runQueued executes a job taken from the buffered queue: queued-1,
// inflight+1 in one CAS so Stats never sees the job in both places or
// neither.
func (r *Runtime) runQueued(job submission) {
	for {
		s := r.qstate.Load()
		if r.qstate.CompareAndSwap(s, s-1<<32+1) {
			break
		}
	}
	r.finishJob(job)
}

// runDirect executes a handoff job, which was never queued.
func (r *Runtime) runDirect(job submission) {
	r.qstate.Add(1) // inflight+1
	r.finishJob(job)
}

func (r *Runtime) finishJob(job submission) {
	defer func() {
		r.qstate.Add(^uint64(0)) // inflight-1
		r.completed.Add(1)
		if job.done != nil {
			close(job.done)
		}
	}()
	job.fn()
}

func (r *Runtime) runOwn(w *worker) bool {
	t := w.deque.pop()
	if t == nil {
		return false
	}
	t.run(&TaskCtx{rt: r, w: w})
	return true
}

func (r *Runtime) runStolen(w *worker) bool {
	all := *r.all.Load()
	n := len(all)
	// Start the victim scan at a per-worker offset so thieves spread
	// across victims instead of all hammering worker 0.
	for off := 0; off < n; off++ {
		v := all[(w.id+1+off)%n]
		if v == w {
			continue
		}
		if t := v.deque.steal(); t != nil {
			w.stats.steals.Add(1)
			t.run(&TaskCtx{rt: r, w: w})
			return true
		}
	}
	return false
}

// runRegion contributes this worker to the oldest active region that
// still has an open participant slot, working it until its index pool
// is empty.
func (r *Runtime) runRegion(w *worker) bool {
	for _, reg := range *r.regions.Load() {
		if reg.join(w.stats) {
			return true
		}
	}
	return false
}

// workVisible is the pre-park recheck: any work source non-empty?
func (r *Runtime) workVisible(w *worker) bool {
	if !w.deque.empty() || len(r.submitq) > 0 {
		return true
	}
	for _, reg := range *r.regions.Load() {
		if reg.open() {
			return true
		}
	}
	for _, v := range *r.all.Load() {
		if v != w && !v.deque.empty() {
			return true
		}
	}
	return false
}

func (r *Runtime) wakeOne() {
	for _, w := range r.workers {
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
				return
			default:
			}
		}
	}
}

func (r *Runtime) wakeAll() {
	for _, w := range r.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// attach registers a non-worker participant (a Do caller) so workers
// can steal from its deque; detach removes it.
func (r *Runtime) attach(w *worker) {
	if r == nil {
		return
	}
	r.mu.Lock()
	old := *r.all.Load()
	next := make([]*worker, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, w)
	r.all.Store(&next)
	r.mu.Unlock()
}

func (r *Runtime) detach(w *worker) {
	if r == nil {
		return
	}
	r.mu.Lock()
	old := *r.all.Load()
	next := make([]*worker, 0, len(old)-1)
	for _, x := range old {
		if x != w {
			next = append(next, x)
		}
	}
	r.all.Store(&next)
	r.mu.Unlock()
}

func (r *Runtime) addRegion(reg *region) {
	r.mu.Lock()
	old := *r.regions.Load()
	next := make([]*region, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, reg)
	r.regions.Store(&next)
	r.mu.Unlock()
	r.wakeAll()
}

func (r *Runtime) removeRegion(reg *region) {
	r.mu.Lock()
	old := *r.regions.Load()
	next := make([]*region, 0, len(old))
	for _, x := range old {
		if x != reg {
			next = append(next, x)
		}
	}
	r.regions.Store(&next)
	r.mu.Unlock()
}

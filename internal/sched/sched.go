// Package sched is the work-stealing runtime shared by the engine,
// the omp layer, and the HTTP daemon. One Runtime owns a fixed set of
// worker goroutines; work reaches them two ways:
//
//   - SubmitWait: jobs through a bounded admission queue (the HTTP
//     daemon admits every computation with it).
//   - ParallelIndexed: data-parallel regions over an index range,
//     distributed through a range-stealing IndexPool. The caller
//     always participates, so a region finishes even when every
//     runtime worker is busy or the runtime is closed — workers are
//     accelerators, never a liveness dependency. Regions nest, so a
//     fork-join of two halves is a two-index region: the caller runs
//     index 0, an idle worker may join and take index 1, and if none
//     does the caller runs it too.
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

// The admission errors SubmitWait returns; match them with errors.Is.
var (
	// ErrQueueFull rejects a SubmitWait because the bounded queue is at
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

// WithQueueDepth bounds the SubmitWait admission queue (default 0:
// every SubmitWait that finds no idle capacity is shed immediately).
func WithQueueDepth(n int) Option { return func(c *config) { c.queue = n } }

// worker is one runtime-owned execution lane with its own counter
// block.
type worker struct {
	id     int
	parked atomic.Bool
	wake   chan struct{}
	stats  workerStats
}

// Runtime is the scheduler. The zero value is not usable; construct
// with New. A nil *Runtime is accepted everywhere and degrades to
// caller-only (sequential) execution, so callers can thread an
// optional runtime without nil checks.
type Runtime struct {
	workers []*worker

	submitq chan submission
	// handoff is the unbuffered direct lane: when the queue is full —
	// or has zero capacity — a SubmitWait still succeeds if some worker
	// is parked in receive at that instant, preserving the classic
	// zero-queue pool semantics ("find an idle worker now or shed").
	// It is never closed; Close fences submissions with the closed flag.
	handoff chan submission
	// qstate packs queued<<32 | inflight for consistent snapshots.
	qstate      PaddedUint64
	submitted   PaddedInt64
	shed        PaddedInt64
	completed   PaddedInt64
	rangeSteals PaddedInt64
	// external is the shared stat block of non-worker participants:
	// the calling goroutines of ParallelIndexed regions (slot 0).
	external workerStats

	// regions is the copy-on-write list of active indexed regions.
	regions atomic.Pointer[[]*region]

	mu     sync.RWMutex // guards closed vs submit/close(submitq)
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
		r.workers[i] = &worker{id: i, wake: make(chan struct{}, 1)}
	}
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

// submission is a submitted job; done is closed once fn has returned
// and been counted, so its waiter sees it completed in Introspect.
type submission struct {
	fn   func()
	done chan struct{}
}

// SubmitWait enqueues job and waits until it has run and been counted:
// after a nil return, Introspect shows it completed. Admission
// never blocks: when the bounded queue is full the job is shed with
// ErrQueueFull, and after Close it fails with ErrClosed. If ctx ends
// first it returns ctx.Err(), and the job still runs — so an
// already-ended ctx enqueues without waiting.
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
// for in-flight work, and stops the workers. Further SubmitWaits fail
// with ErrClosed; indexed regions keep working on the caller's
// goroutine after Close.
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

// workerLoop is one worker's scheduling loop: region index work
// first, then the submit queue, then park.
func (r *Runtime) workerLoop(w *worker) {
	defer r.wg.Done()
	for {
		if r.runRegion(w) {
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
		if r.workVisible() {
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
// inflight+1 in one CAS so Introspect never sees the job in both places or
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
		close(job.done)
	}()
	job.fn()
}

// runRegion contributes this worker to the oldest active region that
// still has an open participant slot, working it until its index pool
// is empty.
func (r *Runtime) runRegion(w *worker) bool {
	for _, reg := range *r.regions.Load() {
		if reg.join(&w.stats) {
			return true
		}
	}
	return false
}

// workVisible is the pre-park recheck: any work source non-empty?
func (r *Runtime) workVisible() bool {
	if len(r.submitq) > 0 {
		return true
	}
	for _, reg := range *r.regions.Load() {
		if reg.open() {
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

// Package engine is the parallel study-execution engine: it fans
// core.Study runs out over a bounded worker pool with deterministic seed
// streams, context cancellation with partial-result collection, and run
// and stage metrics recorded into an obs registry (WithMetrics).
//
// Determinism is the design constraint the whole API serves. Every
// multi-run path in the repo (the sensitivity sweep, the what-if
// projection, the replication example) must produce byte-identical
// output no matter how many workers execute it or how the scheduler
// interleaves them. The engine guarantees that by construction: run i
// draws its seed from a pure function of (stream, i), each run's
// randomness is fully internal to its core.Study, and results are collected
// into a slice indexed by i — completion order never influences the
// output. This mirrors the course's own OpenMP patternlets, where the
// parallel loop owns per-iteration state and the reduction is
// order-insensitive.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/sched"
)

// ErrCanceled is the sentinel wrapped by Sweep and Map when the caller's
// context ends before every run completes. Test with errors.Is.
var ErrCanceled = errors.New("engine: canceled before all runs completed")

// SeedStream derives the seed of run i. Implementations must be pure:
// the same i always yields the same seed, independent of call order —
// that is what makes a parallel sweep reproducible.
type SeedStream func(i int) int64

// SequentialSeeds streams start, start+1, start+2, … — the historical
// sweep convention, kept so existing sensitivity baselines stay
// byte-identical.
func SequentialSeeds(start int64) SeedStream {
	return func(i int) int64 { return start + int64(i) }
}

// Engine executes studies over a bounded worker pool. The zero value is
// not usable; construct with New.
type Engine struct {
	workers int
	metrics *metrics
	retries int
	rt      *sched.Runtime
}

// retryBackoff is the base sleep before a retried attempt; attempt a
// sleeps retryBackoff<<a.
const retryBackoff = 100 * time.Microsecond

// metrics are the engine's instruments on one obs registry. A nil
// *metrics records nothing.
type metrics struct {
	started, completed, failed, retried *obs.Counter
	run                                 *obs.Hist
	stage                               core.StageObserver
}

// StageObserver records each pipeline stage's wall time into reg's
// engine_stage_duration_seconds family; an engine built WithMetrics(reg)
// installs it on every run.
func StageObserver(reg *obs.Registry) core.StageObserver {
	stages := reg.HistogramVec("engine_stage_duration_seconds", "Per-stage wall time of the study pipeline.", "stage")
	return func(stage string, d time.Duration) { stages.With(stage).Observe(d.Seconds()) }
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the pool; n <= 0 selects runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithMetrics records the engine's runs into reg: the counters
// engine_runs_{started,completed,failed,retried}_total and the
// histograms engine_run_duration_seconds and
// engine_stage_duration_seconds{stage}. A nil reg records nothing.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg == nil {
			e.metrics = nil
			return
		}
		e.metrics = &metrics{
			started:   reg.Counter("engine_runs_started_total", "Study runs started."),
			completed: reg.Counter("engine_runs_completed_total", "Study runs completed successfully."),
			failed:    reg.Counter("engine_runs_failed_total", "Study runs that returned an error."),
			retried:   reg.Counter("engine_runs_retried_total", "Transient-failure retries across all runs."),
			run:       reg.Histogram("engine_run_duration_seconds", "Whole-run wall time."),
			stage:     StageObserver(reg),
		}
	}
}

// WithRetry re-executes a run that failed with a transient error
// (fault.IsTransient: injected faults, delivery exhaustion, per-run
// deadline expiry) up to n more times, sleeping retryBackoff<<attempt
// between attempts. Permanent errors are never retried. Each attempt
// draws a freshly forked fault stream keyed by (run index, attempt), so
// retry outcomes — like everything else in a sweep — are deterministic
// and worker-count independent.
func WithRetry(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.retries = n
		}
	}
}

// WithRuntime executes the engine's parallel regions on a shared
// sched.Runtime instead of the process-wide default — the daemon
// passes its pool's runtime here so study fan-out and admitted jobs
// share one set of workers. WithWorkers still bounds how many of the
// runtime's workers one Sweep or Map may occupy. The caller keeps
// ownership: the engine never closes rt, and because the submitting
// goroutine always participates in its own region, an engine on a
// busy (or even closed) runtime still makes progress.
func WithRuntime(rt *sched.Runtime) Option {
	return func(e *Engine) { e.rt = rt }
}

// New builds an engine with runtime.NumCPU() workers unless overridden.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.NumCPU()}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Workers reports the pool bound.
func (e *Engine) Workers() int { return e.workers }

// RunResult is one study execution inside a sweep.
type RunResult struct {
	Index   int
	Seed    int64
	Outcome *core.Outcome
	Err     error
	Elapsed time.Duration
	// Attempts is how many executions the run took (1 = no retries).
	Attempts int
}

// SweepResult collects a sweep's completed runs in index order.
type SweepResult struct {
	// Runs holds every run that finished (successfully or not) before
	// cancellation, ordered by Index. On an uncanceled sweep it has
	// exactly Requested entries.
	Runs []RunResult
	// Requested is the run count asked for; Workers the pool bound used.
	Requested int
	Workers   int
	// Elapsed is the sweep's wall time.
	Elapsed time.Duration
}

// FirstErr returns the lowest-index run error, or nil. The lowest index
// — not the first in completion order — keeps error reporting
// deterministic under parallelism. The message classifies the failure
// as transient (retryable: injected faults, delivery exhaustion, run
// timeouts) or permanent, so sweep reports distinguish flaky-hardware
// losses from genuinely broken configurations; the class is also
// queryable with fault.IsTransient on the returned error.
func (r *SweepResult) FirstErr() error {
	for i := range r.Runs {
		if err := r.Runs[i].Err; err != nil {
			class := "permanent"
			if fault.IsTransient(err) {
				class = "transient"
			}
			return fmt.Errorf("engine: run %d (seed %d): %s failure: %w",
				r.Runs[i].Index, r.Runs[i].Seed, class, err)
		}
	}
	return nil
}

// Sweep executes n studies built from cfg, run i overriding the seed
// with seeds(i), fanned over the worker pool. Per-run errors are
// recorded in their RunResult and do not abort the sweep. The returned
// error is non-nil only when ctx ends early, in which case it wraps
// ErrCanceled and the SweepResult still carries every run that
// completed — partial-result collection, not all-or-nothing.
func (e *Engine) Sweep(ctx context.Context, cfg core.StudyConfig, seeds SeedStream, n int) (*SweepResult, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative run count %d", n)
	}
	if seeds == nil {
		return nil, errors.New("engine: nil seed stream")
	}
	begin := time.Now()
	results := make([]RunResult, n)
	done := make([]bool, n)

	sweepSpan, ctx := obs.Default().StartSpan(ctx, obs.PIDEngine, 0, "engine", "sweep")
	sweepSpan = sweepSpan.Int("runs", int64(n)).Int("workers", int64(e.workers))
	// The fault base is resolved once: each attempt below forks it with a
	// (run index, attempt) salt, so every attempt draws a fresh — but
	// fully deterministic — fault schedule. Nil when injection is off.
	faultBase := fault.FromContext(ctx)
	e.mapIndexed(ctx, n, func(runCtx context.Context, i, worker int) {
		seed := seeds(i)
		opts := []core.Option{core.WithConfig(cfg), core.WithSeed(seed)}
		m := e.metrics
		if m != nil {
			opts = append(opts, core.WithStageObserver(m.stage))
			m.started.Inc()
		}
		// One span per run on the worker's lane: the trace shows pool
		// utilization directly (gaps = idle workers).
		sp, runCtx := obs.Default().StartSpan(runCtx, obs.PIDEngine, uint32(worker)+1, "engine", "run")
		sp = sp.Int("index", int64(i)).Int("seed", seed)
		start := time.Now()
		out, err, attempts := e.runWithRetry(runCtx, faultBase, i, seed, opts)
		elapsed := time.Since(start)
		if m != nil {
			m.run.Observe(elapsed.Seconds())
			if err != nil {
				m.failed.Inc()
			} else {
				m.completed.Inc()
			}
		}
		sp.End()
		results[i] = RunResult{Index: i, Seed: seed, Outcome: out, Err: err, Elapsed: elapsed, Attempts: attempts}
		done[i] = true
	})
	sweepSpan.End()

	sr := &SweepResult{Requested: n, Workers: e.workers, Elapsed: time.Since(begin)}
	for i := 0; i < n; i++ {
		if done[i] {
			sr.Runs = append(sr.Runs, results[i])
		}
	}
	if err := ctx.Err(); err != nil {
		return sr, fmt.Errorf("engine: %d/%d runs completed: %w (%w)", len(sr.Runs), n, ErrCanceled, err)
	}
	return sr, nil
}

// runWithRetry executes run i, a study of seed, re-attempting
// transient failures up to the engine's retry budget. When fault
// injection is armed each attempt gets its own forked decision stream,
// keyed by (seed, attempt): the seed is a pure function of i within a
// sweep, and unlike i it differs between single-run requests, which
// are all index 0. Returns the final outcome, error, and attempt count.
func (e *Engine) runWithRetry(ctx context.Context, faultBase *fault.Injector, i int, seed int64, opts []core.Option) (*core.Outcome, error, int) {
	for attempt := 0; ; attempt++ {
		attemptCtx := ctx
		if faultBase != nil {
			inj := faultBase.Fork(fault.Mix2(uint64(seed), uint64(attempt))).
				WithTrace(obs.TraceIDFromContext(ctx))
			attemptCtx = fault.NewContext(ctx, inj)
			// The engine's own injection site: fail the attempt with a
			// transient error before the study executes.
			if f, ok := inj.Hit(fault.SiteEngineRun, fault.Mix2(uint64(seed), uint64(attempt))); ok && f.Kind == fault.RunFail {
				obs.Default().Span(obs.PIDEngine, 0, "fault", "run-fail").
					Int("index", int64(i)).Int("attempt", int64(attempt)).Emit()
				if next, retry := e.nextAttempt(ctx, faultBase, attempt,
					fmt.Errorf("engine: injected run failure: %w", fault.ErrTransient)); !retry {
					return nil, next, attempt + 1
				}
				continue
			}
		}
		out, err := core.NewStudy(opts...).Run(attemptCtx)
		if err == nil {
			if attempt > 0 {
				// The transient fault(s) that failed earlier attempts are
				// now fully absorbed.
				faultBase.MarkRecovered(1)
			}
			return out, nil, attempt + 1
		}
		if next, retry := e.nextAttempt(ctx, faultBase, attempt, err); !retry {
			return nil, next, attempt + 1
		}
	}
}

// nextAttempt decides whether a failed attempt is retried: the error
// must classify transient, budget must remain, and the caller's context
// must still be live. On retry it records the retry in metrics and the
// fault ledger and sleeps the deterministic backoff.
func (e *Engine) nextAttempt(ctx context.Context, faultBase *fault.Injector, attempt int, err error) (error, bool) {
	if attempt >= e.retries || !fault.IsTransient(err) || ctx.Err() != nil {
		return err, false
	}
	if e.metrics != nil {
		e.metrics.retried.Inc()
	}
	faultBase.MarkRetry()
	flightrec.Active().Event(flightrec.KindRetry, "engine.run", uint64(attempt), obs.TraceIDFromContext(ctx))
	time.Sleep(retryBackoff << uint(attempt))
	return nil, true
}

// mapIndexed fans fn out over the scheduler runtime as one
// work-stealing indexed region, bounded to the engine's worker count.
// The runtime's workers join as participants while the calling
// goroutine drives slot 0, so the region needs no goroutines of its
// own on the common one-worker path and can never deadlock on a
// saturated runtime. fn must handle its own errors; each index is
// attempted at most once, and after ctx ends no further indices are
// handed out.
func (e *Engine) mapIndexed(ctx context.Context, n int, fn func(ctx context.Context, i, worker int)) {
	rt := e.rt
	if rt == nil {
		rt = sched.Default()
	}
	rt.ParallelIndexed(ctx, n, e.workers, 1, func(i, slot int) {
		fn(ctx, i, slot)
	})
}

// Map runs fn(ctx, i) for every i in [0, n) over the engine's pool and
// returns the results indexed by i. Unlike Sweep it is generic (any
// per-run work, not just studies) and fail-fast: the first error (by
// index, for determinism) cancels the remaining runs and is returned.
// On caller cancellation the error wraps ErrCanceled. It is the
// building block non-sweep callers (the what-if projection, the
// replication example) use to parallelize heterogeneous work.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	mapCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.mapIndexed(mapCtx, n, func(runCtx context.Context, i, worker int) {
		sp := obs.Default().Span(obs.PIDEngine, uint32(worker)+1, "engine", "map.run").Int("index", int64(i))
		defer sp.End()
		v, err := fn(runCtx, i)
		if err != nil {
			errs[i] = err
			cancel() // fail fast: stop handing out further indices
			return
		}
		results[i] = v
	})
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("engine: map: %w (%w)", ErrCanceled, err)
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("engine: map run %d: %w", i, err)
		}
	}
	// The fail-fast cancel may have stopped index distribution before
	// every run executed even though no error is visible yet (a racing
	// worker observed mapCtx done). With no recorded error and a live
	// caller context that cannot happen: cancel() is only called after
	// an error is stored. So reaching here means every index ran.
	return results, nil
}

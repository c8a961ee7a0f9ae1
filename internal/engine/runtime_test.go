package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pblparallel/internal/sched"
)

// The daemon's admission pool is a sched.Runtime that it also hands to
// its engines through WithRuntime, so an admitted job fans its study
// out over the same workers that admitted it. These tests run that
// shape: every admitted job drives an engine region on the pool's own
// runtime.

// ended is an already-canceled context: SubmitWait with it admits the
// job and returns at once, without waiting for the job to run.
var ended = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// submitUntilAdmitted retries a shed SubmitWait until the runtime
// takes the job, and returns without waiting for it to run.
func submitUntilAdmitted(t *testing.T, rt *sched.Runtime, job func()) {
	t.Helper()
	for {
		err := rt.SubmitWait(ended, job)
		if err == nil || errors.Is(err, context.Canceled) {
			return
		}
		if !errors.Is(err, sched.ErrQueueFull) {
			t.Fatalf("SubmitWait: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolRunsEveryJob: admitted jobs that each run a Map on the
// pool's runtime all complete with correct results, and the pool
// drains to an empty ledger on Close.
func TestPoolRunsEveryJob(t *testing.T) {
	rt := sched.New(sched.WithWorkers(4), sched.WithQueueDepth(16))
	e := New(WithWorkers(4), WithRuntime(rt))
	const jobs, n = 32, 8
	var ran atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		submitUntilAdmitted(t, rt, func() {
			defer wg.Done()
			out, err := Map(context.Background(), e, n, func(_ context.Context, i int) (int, error) {
				return i * i, nil
			})
			if err != nil {
				errs <- err
				return
			}
			for i, v := range out {
				if v != i*i {
					errs <- errors.New("Map result out of place")
					return
				}
			}
			ran.Add(1)
		})
	}
	wg.Wait()
	rt.Close()
	close(errs)
	for err := range errs {
		t.Fatalf("admitted job: %v", err)
	}
	if got := ran.Load(); got != jobs {
		t.Fatalf("ran %d jobs, want %d", got, jobs)
	}
	s := rt.Introspect()
	if s.Submitted != jobs || s.Completed != jobs || s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

// TestPoolStatsConsistentUnderHammer: while submitters race admitted
// jobs that each fan a Map out over the same runtime, every Introspect
// snapshot stays within the pool's own bounds. Region work run by the
// workers must never leak into the admission columns.
func TestPoolStatsConsistentUnderHammer(t *testing.T) {
	const workers, queue = 2, 3
	rt := sched.New(sched.WithWorkers(workers), sched.WithQueueDepth(queue))
	defer rt.Close()
	e := New(WithWorkers(workers), WithRuntime(rt))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = rt.SubmitWait(ended, func() {
						_, _ = Map(context.Background(), e, 4, func(_ context.Context, i int) (int, error) {
							return i, nil
						})
					})
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var snapshots int
	for time.Now().Before(deadline) {
		s := rt.Introspect()
		snapshots++
		if s.InFlight < 0 || s.InFlight > workers {
			t.Fatalf("snapshot %d: InFlight %d outside [0, %d]: %+v", snapshots, s.InFlight, workers, s)
		}
		if s.Queued < 0 || s.Queued > queue {
			t.Fatalf("snapshot %d: Queued %d outside [0, %d]: %+v", snapshots, s.Queued, queue, s)
		}
	}
	close(stop)
	wg.Wait()
}

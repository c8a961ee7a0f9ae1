package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ended is an already-canceled context. SubmitWait with it admits the
// job and returns at once, so tests can fill the queue without waiting
// for the jobs they enqueue.
var ended = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// enqueue admits job without waiting for it to run: nil once admitted,
// otherwise SubmitWait's admission error.
func enqueue(r *Runtime, job func()) error {
	if err := r.SubmitWait(ended, job); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// TestSubmitRunsJobs: submitted jobs all execute; Completed ledger
// matches.
func TestSubmitRunsJobs(t *testing.T) {
	r := New(WithWorkers(4), WithQueueDepth(64))
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if err := enqueue(r, func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	r.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d jobs, want 50", got)
	}
	st := r.Stats()
	if st.Submitted != 50 || st.Completed != 50 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestSubmitWaitCtxEndsFirst pins SubmitWait's ctx contract, the one
// enqueue relies on: when ctx ends while the job is still queued or
// running, SubmitWait returns ctx.Err() at once, the job still runs,
// and Stats counts it completed. Admission errors come back through
// a live ctx unchanged.
func TestSubmitWaitCtxEndsFirst(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(1))
	started := make(chan struct{})
	release := make(chan struct{})
	ran := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- r.SubmitWait(ctx, func() { close(started); <-release; close(ran) })
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitWait with ctx ended first = %v, want context.Canceled", err)
	}
	select {
	case <-ran:
		t.Fatal("job finished before it was released")
	default:
	}
	// The worker holds the first job, so the queue's one slot takes the
	// second and a third must shed, even with a live ctx.
	if err := enqueue(r, func() {}); err != nil {
		t.Fatalf("queued enqueue: %v", err)
	}
	if err := r.SubmitWait(context.Background(), func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitWait on a full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	<-ran
	r.Close()
	if st := r.Stats(); st.Completed != 2 || st.Shed != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats after close: %+v, want 2 completed, 1 shed", st)
	}
	if err := r.SubmitWait(context.Background(), func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitShedsWhenFull: a full queue sheds with ErrQueueFull and
// counts it; a closed runtime rejects with ErrClosed.
func TestSubmitShedsWhenFull(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(1))
	block := make(chan struct{})
	started := make(chan struct{})
	if err := enqueue(r, func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	if err := enqueue(r, func() {}); err != nil {
		t.Fatalf("queue should hold one: %v", err)
	}
	var shed bool
	for i := 0; i < 3; i++ {
		if err := enqueue(r, func() {}); errors.Is(err, ErrQueueFull) {
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("expected ErrQueueFull with worker blocked and queue occupied")
	}
	if got := r.Stats().Shed; got < 1 {
		t.Fatalf("shed count %d, want >= 1", got)
	}
	close(block)
	r.Close()
	if err := enqueue(r, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSubmitZeroQueueHandoff: with no queue capacity a job lands
// only through the handoff lane to a parked worker, and sheds (and
// counts the shed) once the only worker is busy.
func TestSubmitZeroQueueHandoff(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(0))
	defer r.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	// The worker may not be parked in receive yet, so the first job can
	// need a beat to find it.
	for {
		err := enqueue(r, func() { close(started); <-release })
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("first enqueue: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-started // the only worker is busy; there is no queue to fall back on
	pre := r.Stats().Shed
	if err := enqueue(r, func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue with the worker busy = %v, want ErrQueueFull", err)
	}
	if st := r.Stats(); st.Shed != pre+1 || st.InFlight != 1 || st.Queued != 0 {
		t.Fatalf("stats: %+v (shed before: %d)", st, pre)
	}
	close(release)
}

// TestCloseDrainsQueuedJobs: Close blocks while a job is in flight,
// then runs every queued job before returning; later submissions are
// rejected with ErrClosed.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(8))
	started := make(chan struct{})
	release := make(chan struct{})
	if err := enqueue(r, func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if err := enqueue(r, func() { ran.Add(1) }); err != nil {
			t.Fatalf("queued enqueue %d: %v", i, err)
		}
	}
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
		t.Fatal("Close returned while a job was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done
	if got := ran.Load(); got != 8 {
		t.Fatalf("drained %d queued jobs, want 8", got)
	}
	if err := enqueue(r, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
	}
}

// TestStatsConsistentUnderHammer is the shed-accounting regression
// guard: while submitters and workers race, every snapshot must obey
// InFlight <= Workers and Queued <= QueueCap — the pair comes from
// one packed word, so a torn read cannot leak an in-flight job into
// both (or neither) column.
func TestStatsConsistentUnderHammer(t *testing.T) {
	const workers, queue = 3, 5
	r := New(WithWorkers(workers), WithQueueDepth(queue))
	defer r.Close()
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
					_ = enqueue(r, func() {})
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := r.Stats()
		if st.InFlight < 0 || st.InFlight > workers {
			t.Fatalf("InFlight %d outside [0, %d]", st.InFlight, workers)
		}
		if st.Queued < 0 || st.Queued > queue {
			t.Fatalf("Queued %d outside [0, %d]", st.Queued, queue)
		}
	}
	close(stop)
	wg.Wait()
}

// TestParallelIndexedCoverage: every index executes exactly once for
// a spread of worker counts, parallelism caps, and grains.
func TestParallelIndexedCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		r := New(WithWorkers(workers))
		for _, tc := range []struct{ n, maxPar, grain int }{
			{0, 4, 1}, {1, 4, 1}, {17, 1, 1}, {100, 4, 1}, {100, 16, 7}, {1000, 8, 3},
		} {
			hits := make([]atomic.Int32, tc.n+1)
			r.ParallelIndexed(context.Background(), tc.n, tc.maxPar, tc.grain, func(i, slot int) {
				hits[i].Add(1)
			})
			for i := 0; i < tc.n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d %+v: index %d ran %d times", workers, tc, i, got)
				}
			}
		}
		r.Close()
	}
}

// TestParallelIndexedSlotBounds: slots stay within [0, maxPar) so
// lane-indexed scratch arrays sized by the caller never overflow.
func TestParallelIndexedSlotBounds(t *testing.T) {
	r := New(WithWorkers(8))
	defer r.Close()
	const n, maxPar = 500, 3
	var bad atomic.Int32
	r.ParallelIndexed(context.Background(), n, maxPar, 1, func(i, slot int) {
		if slot < 0 || slot >= maxPar {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d executions saw an out-of-range slot", bad.Load())
	}
}

// TestParallelIndexedCancel: a canceled context stops the handout;
// the call still returns with every index accounted for and no hang.
// fn cancels at the k-th executed index. Counting only the indices that
// start once cancel has returned, a region of p participants may run
// one chunk per participant (p·grain) by the handout contract, and the
// in-chunk check holds it to the one index each other participant had
// already passed its check for (p - 1). The one-participant path stops
// right after index k. A context whose Done is nil never cancels.
func TestParallelIndexedCancel(t *testing.T) {
	const n, k = 10000, 50
	r := New(WithWorkers(4))
	defer r.Close()

	// Pre-canceled: nothing runs.
	var ran atomic.Int64
	r.ParallelIndexed(ended, 100, 4, 1, func(i, slot int) { ran.Add(1) })
	if got := ran.Load(); got != 0 {
		t.Fatalf("pre-canceled region ran %d indices", got)
	}

	// run returns the indices a region executed, and how many of them
	// started after fn's cancel at the k-th one returned; cancelAt 0
	// runs under context.Background.
	run := func(rt *Runtime, maxPar, grain int, cancelAt int64) (ran, after int64) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAt == 0 {
			ctx = context.Background()
		}
		var count, late atomic.Int64
		var returned atomic.Bool
		rt.ParallelIndexed(ctx, n, maxPar, grain, func(i, slot int) {
			if returned.Load() {
				late.Add(1)
			}
			if count.Add(1) == cancelAt {
				cancel()
				returned.Store(true)
			}
		})
		return count.Load(), late.Load()
	}
	for _, grain := range []int{1, 64} {
		const p = 4
		if got, after := run(r, p, grain, k); got < k || got == n || after > p-1 {
			t.Errorf("grain %d, p %d: canceled at index %d, ran %d, %d after the cancel, want at most %d after",
				grain, p, k, got, after, p-1)
		}
		if got, _ := run(r, p, grain, 0); got != n {
			t.Errorf("grain %d, p %d: background context ran %d of %d", grain, p, got, n)
		}
	}
	for _, tc := range []struct {
		name   string
		rt     *Runtime
		maxPar int
	}{{"maxPar 1", r, 1}, {"nil runtime", nil, 4}} {
		if got, _ := run(tc.rt, tc.maxPar, 1, k); got != k {
			t.Errorf("%s: canceled at index %d, ran %d, want exactly %d", tc.name, k, got, k)
		}
		if got, _ := run(tc.rt, tc.maxPar, 1, 0); got != n {
			t.Errorf("%s: background context ran %d of %d", tc.name, got, n)
		}
	}
}

// TestParallelIndexedNilRuntime: a nil runtime degrades to in-order
// sequential execution on the caller.
func TestParallelIndexedNilRuntime(t *testing.T) {
	var r *Runtime
	var order []int
	r.ParallelIndexed(context.Background(), 5, 8, 1, func(i, slot int) {
		if slot != 0 {
			t.Fatalf("nil runtime used slot %d", slot)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

// TestParallelIndexedNested: a region started from inside a submitted
// job on a saturated runtime still completes, because the caller
// participates — workers are never a liveness dependency.
func TestParallelIndexedNested(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(4))
	defer r.Close()
	done := make(chan int64, 1)
	err := enqueue(r, func() {
		var ran atomic.Int64
		r.ParallelIndexed(context.Background(), 100, 4, 1, func(i, slot int) { ran.Add(1) })
		done <- ran.Load()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != 100 {
			t.Fatalf("nested region ran %d, want 100", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested region deadlocked")
	}
}

// quicksort is the divide-and-conquer test body: Join-based with a
// sequential cutoff.
func quicksort(tc *TaskCtx, xs []float64) {
	if len(xs) <= 32 {
		sort.Float64s(xs)
		return
	}
	mid := partition(xs)
	tc.Join(
		func(tc *TaskCtx) { quicksort(tc, xs[:mid]) },
		func(tc *TaskCtx) { quicksort(tc, xs[mid+1:]) },
	)
}

func partition(xs []float64) int {
	pivot := xs[len(xs)/2]
	xs[len(xs)/2], xs[len(xs)-1] = xs[len(xs)-1], xs[len(xs)/2]
	i := 0
	for j := 0; j < len(xs)-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[len(xs)-1] = xs[len(xs)-1], xs[i]
	return i
}

func testSlice(n int) []float64 {
	xs := make([]float64, n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		xs[i] = float64(s % 1000003)
	}
	return xs
}

// TestJoinQuicksort: the fork-join tree sorts correctly at several
// worker counts — including on a nil runtime — and spawn bookkeeping
// moves.
func TestJoinQuicksort(t *testing.T) {
	want := testSlice(20000)
	sort.Float64s(want)
	for _, workers := range []int{0, 1, 2, 8} {
		xs := testSlice(20000)
		var r *Runtime
		if workers > 0 {
			r = New(WithWorkers(workers))
		}
		r.Do(func(tc *TaskCtx) { quicksort(tc, xs) })
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("workers=%d: sort mismatch at %d", workers, i)
			}
		}
		if workers > 0 {
			if st := r.Stats(); st.Spawned == 0 {
				t.Errorf("workers=%d: no tasks spawned", workers)
			}
			r.Close()
		}
	}
}

// TestCloseIdempotentAndConcurrent: double Close and Close racing
// submissions are safe.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	r := New(WithWorkers(2), WithQueueDepth(8))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = enqueue(r, func() {})
			}
		}()
	}
	r.Close()
	r.Close()
	wg.Wait()
}

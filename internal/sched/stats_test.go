package sched

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIntrospectNil pins the nil-runtime contract: introspection of a
// disabled scheduler is the zero document, not a panic.
func TestIntrospectNil(t *testing.T) {
	var r *Runtime
	snap := r.Introspect()
	if snap.Workers != 0 || snap.PerWorker != nil {
		t.Fatalf("nil runtime Introspect = %+v, want zero", snap)
	}
}

// TestIntrospectGrainClaims asserts the claim ledger is exact: every
// grain-aligned chunk of a region is claimed exactly once, so the
// grain-claim total across all participants equals the chunk count no
// matter how stealing interleaved.
func TestIntrospectGrainClaims(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Close()
	const n, grain = 1 << 12, 16
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	r.ParallelIndexed(context.Background(), n, 4, grain, func(i, slot int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if len(seen) != n {
		t.Fatalf("executed %d indices, want %d", len(seen), n)
	}
	snap := r.Introspect()
	wantChunks := int64((n + grain - 1) / grain)
	if snap.GrainClaims != wantChunks {
		t.Fatalf("grain claims = %d, want %d", snap.GrainClaims, wantChunks)
	}
	// The caller always participates as slot 0 and charges the shared
	// external block; workers charge their own.
	var perWorker int64
	for _, w := range snap.PerWorker {
		perWorker += w.GrainClaims
	}
	if perWorker+snap.External.GrainClaims != wantChunks {
		t.Fatalf("per-worker %d + external %d claims, want %d",
			perWorker, snap.External.GrainClaims, wantChunks)
	}
}

// TestIntrospectForkLedger runs a depth-10 tree of forks, each a
// nested two-index region: every leaf runs exactly once, and since a
// fork's two indices are each claimed exactly once, by the caller or a
// joined worker, the grain claims total two per fork.
func TestIntrospectForkLedger(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Close()
	const depth = 10
	leaves := make([]atomic.Int32, 1<<depth)
	var forks atomic.Int64
	var tree func(d, leaf int)
	tree = func(d, leaf int) {
		if d == 0 {
			leaves[leaf].Add(1)
			return
		}
		forks.Add(1)
		fork(r, func() { tree(d-1, 2*leaf) }, func() { tree(d-1, 2*leaf+1) })
	}
	tree(depth, 0)
	for i := range leaves {
		if got := leaves[i].Load(); got != 1 {
			t.Fatalf("leaf %d ran %d times, want 1", i, got)
		}
	}
	if got, want := forks.Load(), int64(1<<depth-1); got != want {
		t.Fatalf("forks = %d, want %d", got, want)
	}
	if snap := r.Introspect(); snap.GrainClaims != 2*forks.Load() {
		t.Fatalf("grain claims = %d, want 2 × %d forks", snap.GrainClaims, forks.Load())
	}
}

// TestIntrospectShape pins the JSON wire form the /debug/sched handler
// serves: per-worker entries carry ids 0..N-1, the external aggregate
// is id -1, and the document round-trips through encoding/json.
func TestIntrospectShape(t *testing.T) {
	r := New(WithWorkers(2), WithQueueDepth(4))
	defer r.Close()
	done := make(chan struct{})
	if err := enqueue(r, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
	snap := r.Introspect()
	if snap.Workers != 2 || len(snap.PerWorker) != 2 {
		t.Fatalf("workers = %d/%d, want 2/2", snap.Workers, len(snap.PerWorker))
	}
	if snap.QueueCap != 4 {
		t.Fatalf("queue cap = %d, want 4", snap.QueueCap)
	}
	if snap.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1", snap.Submitted)
	}
	for i, w := range snap.PerWorker {
		if w.ID != i {
			t.Fatalf("worker %d has id %d", i, w.ID)
		}
	}
	if snap.External.ID != -1 {
		t.Fatalf("external id = %d, want -1", snap.External.ID)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != snap.Workers || len(back.PerWorker) != len(snap.PerWorker) {
		t.Fatalf("round trip lost workers: %+v", back)
	}
}

// TestSubmitWaitCountsBeforeReturning repeats run-then-snapshot on one
// worker with jobs that, like the daemon's, keep running briefly after
// their result is set: once SubmitWait returns, Introspect must
// already count the job as completed and no longer in flight.
func TestSubmitWaitCountsBeforeReturning(t *testing.T) {
	r := New(WithWorkers(1), WithQueueDepth(1))
	defer r.Close()
	for i := int64(1); i <= 200; i++ {
		var result int64
		err := r.SubmitWait(context.Background(), func() {
			result = i
			time.Sleep(20 * time.Microsecond) // e.g. a deferred cancel after the result
		})
		if err != nil {
			t.Fatal(err)
		}
		if result != i {
			t.Fatalf("run %d: result %d not visible after SubmitWait", i, result)
		}
		if st := r.Introspect(); st.Completed != i || st.InFlight != 0 {
			t.Fatalf("run %d: Introspect completed=%d inflight=%d right after SubmitWait, want %d/0", i, st.Completed, st.InFlight, i)
		}
	}
}

// TestIntrospectConcurrent hammers Introspect from 8 goroutines while
// regions and forks churn — the race detector is the assertion.
func TestIntrospectConcurrent(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Introspect()
				if snap.Workers != 4 {
					panic("introspect lost workers")
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		r.ParallelIndexed(context.Background(), 512, 4, 8, func(i, slot int) {})
		fork(r, func() {}, func() {})
	}
	close(stop)
	wg.Wait()
}

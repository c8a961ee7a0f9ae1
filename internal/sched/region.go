package sched

import (
	"context"
	"sync/atomic"
)

// region is one active ParallelIndexed call: an index pool, a bounded
// participant set, and a completion latch. Termination is tracked by
// a single remaining counter — every index is either executed (and
// decremented by its executor) or drained after cancellation (and
// decremented by the drainer), so remaining reaches zero exactly once
// no matter how claims and drains interleave.
type region struct {
	rt        *Runtime
	pool      *IndexPool
	fn        func(i, slot int)
	stop      <-chan struct{} // ctx.Done(), captured once per region
	p         int             // max participants
	slots     atomic.Int32
	_         [CacheLine - 4]byte
	remaining atomic.Int64
	_         [CacheLine - 8]byte
	done      chan struct{}
}

// open reports whether a worker could still usefully join.
func (reg *region) open() bool {
	return int(reg.slots.Load()) < reg.p && reg.remaining.Load() > 0
}

// join contributes the calling worker as a participant if a slot is
// free, working the region until its pool is empty. ws is the
// participant's stat block (grain claims are attributed to whoever
// claimed them). Reports whether any participation happened.
func (reg *region) join(ws *workerStats) bool {
	if !reg.open() {
		return false
	}
	slot := int(reg.slots.Add(1)) - 1
	if slot >= reg.p {
		return false
	}
	reg.work(slot, ws)
	return true
}

// work is one participant's claim-execute loop.
func (reg *region) work(slot int, ws *workerStats) {
	for {
		if canceled(reg.stop) {
			reg.drain()
			return
		}
		start, k := reg.pool.Next(slot)
		if k == 0 {
			return
		}
		if ws != nil {
			ws.grainClaims.Add(1)
		}
		ran := 0
		for i := start; i < start+k; i++ {
			if canceled(reg.stop) {
				break // unexecuted rest of the chunk counts as drained
			}
			reg.fn(i, slot)
			ran++
		}
		reg.complete(int64(k))
		if ran < k {
			reg.drain()
			return
		}
	}
}

// canceled polls a region's ctx.Done(), where a nil stop never fires.
// Not ctx.Err(): on go1.24 Err takes a mutex every participant shares.
func canceled(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// drain removes and accounts all still-unclaimed indices. Safe to
// call from multiple participants: the pool hands each index to
// exactly one drainer.
func (reg *region) drain() {
	if removed := reg.pool.Drain(); removed > 0 {
		reg.complete(int64(removed))
	}
}

// complete retires n indices; the participant that retires the last
// one closes the latch and deregisters the region.
func (reg *region) complete(n int64) {
	if reg.remaining.Add(-n) == 0 {
		close(reg.done)
		if reg.rt != nil {
			reg.rt.rangeSteals.Add(reg.pool.Steals())
			reg.rt.removeRegion(reg)
		}
	}
}

// ParallelIndexed runs fn(i, slot) for every i in [0, n), fanning out
// across at most maxPar participants claiming grain indices at a
// time. The calling goroutine always participates (slot 0), so the
// region completes even on a nil, closed, or fully busy runtime;
// runtime workers join as accelerators when slots remain. ctx
// cancellation stops the handout of further indices — work already
// claimed still runs its in-chunk cancellation check — and the call
// returns once every index is either executed or drained. The check
// runs before each index, so when an index is a whole chunk of work
// (engine.Reduce runs one per chunk at grain 1) cancellation is
// checked per chunk: after it, each participant starts at most the
// one index it was already past the check for.
//
// fn must treat i as its only input for anything that reaches the
// output: slots identify participants (useful for lane-indexed traces
// and scratch space), but which slot claims which i is timing- and
// steal-dependent.
func (r *Runtime) ParallelIndexed(ctx context.Context, n, maxPar, grain int, fn func(i, slot int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := maxPar
	if chunks := (n + grain - 1) / grain; p > chunks {
		p = chunks
	}
	if p < 1 {
		p = 1
	}
	stop := ctx.Done()
	if p == 1 || r == nil {
		for i := 0; i < n && !canceled(stop); i++ {
			fn(i, 0)
		}
		return
	}
	reg := &region{
		rt:   r,
		pool: NewIndexPool(n, p, grain),
		fn:   fn,
		stop: stop,
		p:    p,
		done: make(chan struct{}),
	}
	reg.remaining.Store(int64(n))
	reg.slots.Store(1) // slot 0 is reserved for the caller
	r.addRegion(reg)
	reg.work(0, &r.external)
	<-reg.done
}

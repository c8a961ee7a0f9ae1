package sched

import (
	"runtime"
	"sync/atomic"
	"time"
)

// task is one schedulable fork-join unit on the deques.
type task struct {
	fn    func(*TaskCtx)
	state atomic.Uint32 // 0 pending/running, 1 finished
}

// run executes the task on behalf of tc (owner or thief) and marks it
// finished so a parent blocked in Join can proceed.
func (t *task) run(tc *TaskCtx) {
	t.fn(tc)
	t.state.Store(1)
}

// TaskCtx is the execution context handed to task bodies: it names
// the participant (a runtime worker or an attached Do caller) whose
// deque spawned children land on. The zero value — and any TaskCtx
// from a nil runtime — degrades every Join to sequential execution.
type TaskCtx struct {
	rt *Runtime
	w  *worker
}

// Join runs a and b as potentially parallel siblings and returns when
// both are done. b is pushed on the participant's deque where an idle
// worker may steal it while the caller runs a; if nobody stole it the
// caller pops it back and runs it inline — the spawn-or-inline
// discipline that keeps task trees cheap when the runtime is
// saturated. Determinism: a and b always both complete before Join
// returns, so divide-and-conquer results cannot depend on whether b
// was stolen.
func (c *TaskCtx) Join(a, b func(*TaskCtx)) {
	if c == nil || c.rt == nil || c.w == nil {
		if a != nil {
			a(c)
		}
		if b != nil {
			b(c)
		}
		return
	}
	child := &task{fn: b}
	c.w.stats.spawned.Add(1)
	c.w.deque.push(child)
	c.rt.wakeOne()
	a(c)
	// Reclaim b: with Join-structured use the top of the deque is
	// either our child or empty (stolen). Anything else is a stray
	// push from the body; run it so nothing is lost.
	for {
		t := c.w.deque.pop()
		if t == nil {
			break
		}
		if t == child {
			c.w.stats.inlined.Add(1)
			b(c)
			return
		}
		t.run(c)
	}
	// b was stolen: help run other tasks while it finishes instead of
	// spinning — the thief may itself be blocked on subtasks that
	// landed back on other deques.
	idle := 0
	for child.state.Load() == 0 {
		if c.helpOnce() {
			idle = 0
			continue
		}
		idle++
		if idle < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// helpOnce steals and runs one task from any other participant.
func (c *TaskCtx) helpOnce() bool {
	all := *c.rt.all.Load()
	n := len(all)
	for off := 0; off < n; off++ {
		v := all[(c.w.id+1+off)%n]
		if v == c.w {
			continue
		}
		if t := v.deque.steal(); t != nil {
			c.w.stats.steals.Add(1)
			t.run(c)
			return true
		}
	}
	return false
}

// Do runs fn as the root of a fork-join task tree on the calling
// goroutine, registering the caller as a temporary participant so
// runtime workers can steal the subtasks it spawns. Works — as pure
// sequential recursion — on a nil or closed runtime too.
func (r *Runtime) Do(fn func(*TaskCtx)) {
	if r == nil {
		fn(&TaskCtx{})
		return
	}
	w := newWorker(len(r.workers) + int(r.tempSeq.Add(1)))
	// Attached participants come and go; their counts accumulate on the
	// runtime's shared external block so detach loses nothing.
	w.stats = &r.external
	r.attach(w)
	defer r.detach(w)
	tc := &TaskCtx{rt: r, w: w}
	fn(tc)
	for {
		t := w.deque.pop()
		if t == nil {
			return
		}
		t.run(tc)
	}
}

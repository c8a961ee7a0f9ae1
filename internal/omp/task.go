package omp

import "sync"

// OpenMP tasking (the generalization of Assignment 4's master-worker
// pattern): any thread may create explicit tasks, any thread may execute
// them at a task scheduling point. Taskwait has the real OpenMP
// semantics — it waits for the *children of the current task region*,
// not for global quiescence — so recursive patterns (tasks spawning
// tasks and waiting on them) work without deadlock.

// taskGroup counts the direct children of one task region.
type taskGroup struct {
	pending int
}

// taskItem is one queued task and the group it reports completion to.
type taskItem struct {
	f     func(tc *ThreadContext)
	group *taskGroup
}

// taskPool is the team's shared queue plus the lock/condvar guarding
// every group counter.
type taskPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []taskItem
}

// pool returns the team's task pool, creating it on first use.
func (tm *team) pool() *taskPool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.tasks == nil {
		tm.tasks = &taskPool{}
		tm.tasks.cond = sync.NewCond(&tm.tasks.mu)
	}
	return tm.tasks
}

// group returns the thread's current task region's group, creating the
// per-thread root group lazily.
func (tc *ThreadContext) group() *taskGroup {
	if tc.curGroup == nil {
		tc.curGroup = &taskGroup{}
	}
	return tc.curGroup
}

// Task submits f as an explicit task, a child of the calling task
// region. Tasks run on whichever team member next reaches a Taskwait —
// possibly a different thread than the creator — so f receives the
// *executing* thread's context; use it (not the captured creator's) for
// nested Task/Taskwait calls, exactly as OpenMP code inside a task
// implicitly uses the executing thread. nil tasks are ignored.
func (tc *ThreadContext) Task(f func(tc *ThreadContext)) {
	if f == nil {
		return
	}
	g := tc.group()
	p := tc.team.pool()
	p.mu.Lock()
	g.pending++
	p.queue = append(p.queue, taskItem{f: f, group: g})
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Taskwait blocks until every child task of the current task region has
// completed. While waiting, the calling thread executes pending tasks
// itself (help-first scheduling) — including, possibly, tasks belonging
// to other regions, which is legal task scheduling and keeps the team
// busy.
func (tc *ThreadContext) Taskwait() {
	g := tc.group()
	p := tc.team.pool()
	p.mu.Lock()
	for g.pending > 0 {
		if !tc.runQueued(p) {
			p.cond.Wait()
		}
	}
	p.mu.Unlock()
}

// drainTasks runs queued tasks until the team's queue is empty; each
// member calls it after its body returns, so every explicit task has run
// when Parallel returns. A member may leave once it finds the queue
// empty: a task can only be queued by a member still in its body or
// running a task, and that member drains after it.
func (tc *ThreadContext) drainTasks() {
	tc.team.mu.Lock()
	p := tc.team.tasks
	tc.team.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	for tc.runQueued(p) {
	}
	p.mu.Unlock()
}

// runQueued runs the task at the head of p's queue and reports whether
// there was one. p.mu is held on entry and on return, but not while the
// task runs.
func (tc *ThreadContext) runQueued(p *taskPool) bool {
	if len(p.queue) == 0 {
		return false
	}
	item := p.queue[0]
	p.queue = p.queue[1:]
	p.mu.Unlock()
	tc.runTask(item)
	p.mu.Lock()
	return true
}

// runTask executes one item with the thread's current group switched to
// the task's own (fresh) child group, then reports completion to the
// item's parent group.
func (tc *ThreadContext) runTask(item taskItem) {
	p := tc.team.pool()
	prev := tc.curGroup
	tc.curGroup = &taskGroup{}
	defer func() {
		// Even if the task panics (propagating to Parallel's recover),
		// report completion so siblings don't wait forever.
		tc.curGroup = prev
		p.mu.Lock()
		item.group.pending--
		p.mu.Unlock()
		p.cond.Broadcast()
	}()
	item.f(tc)
}

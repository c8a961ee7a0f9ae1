package omp

import (
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// ThreadContext is one team member's view of the parallel region: its
// identity plus the work-sharing and synchronization constructs.
type ThreadContext struct {
	tid   int
	team  *team
	lane  uint32           // trace lane (base+1+tid of the region's lane block)
	trace obs.TraceContext // request correlation; spans parent under the thread span

	// Per-thread epochs for the work-sharing constructs that must be
	// reached by every team member in the same order (OpenMP's rule for
	// single and sections).
	singleCount   int
	sectionsCount int
	loopCount     int
	barrierCount  int // fault-injection key: this thread's barrier entries

	// curGroup is the current task region's child group (tasking).
	curGroup *taskGroup
}

// ThreadNum is omp_get_thread_num().
func (tc *ThreadContext) ThreadNum() int { return tc.tid }

// NumThreads is omp_get_num_threads().
func (tc *ThreadContext) NumThreads() int { return tc.team.n }

// Barrier blocks until every team member has reached it — the
// patternlet's "coordination: synchronization with a barrier". When
// tracing, the wait renders as a span on the thread's lane, so barrier
// skew (fast threads idling for slow ones) is visible directly; a
// poisoned barrier marks the span outcome=broken.
func (tc *ThreadContext) Barrier() error {
	tc.maybeFault(fault.SiteOMPBarrier, fault.Mix2(uint64(tc.tid), uint64(tc.barrierCount)))
	tc.barrierCount++
	tr := obs.Default()
	if tr == nil {
		return tc.team.barrier.Wait()
	}
	sp := tr.Span(obs.PIDOMP, tc.lane, "omp", "barrier.wait").Trace(tc.trace)
	err := tc.team.barrier.Wait()
	if err != nil {
		sp = sp.Str("outcome", "broken")
	}
	sp.End()
	return err
}

// Master runs f on thread 0 only, with no implied barrier (OpenMP
// master semantics).
func (tc *ThreadContext) Master(f func()) {
	if tc.tid == 0 {
		f()
	}
}

// Critical runs f under the named critical section's lock. All callers
// using the same name across the team are mutually exclusive; the empty
// name is the anonymous critical section.
func (tc *ThreadContext) Critical(name string, f func()) {
	m := tc.team.criticalFor(name)
	m.Lock()
	defer m.Unlock()
	f()
}

// Single runs f on exactly one team member — whichever arrives first —
// and then joins all members at an implicit barrier, matching OpenMP's
// single construct. Every team member must call Single the same number
// of times, or the region deadlocks (as in OpenMP).
func (tc *ThreadContext) Single(f func()) error {
	epoch := tc.singleCount
	tc.singleCount++
	tm := tc.team
	tm.singleMu.Lock()
	arrived := tm.singleArrivals[epoch]
	if arrived+1 == tm.n {
		delete(tm.singleArrivals, epoch)
	} else {
		if tm.singleArrivals == nil {
			tm.singleArrivals = make(map[int]int)
		}
		tm.singleArrivals[epoch] = arrived + 1
	}
	tm.singleMu.Unlock()
	if arrived == 0 {
		if tr := obs.Default(); tr != nil {
			sp := tr.Span(obs.PIDOMP, tc.lane, "omp", "single").Trace(tc.trace)
			f()
			sp.End()
		} else {
			f()
		}
	}
	return tc.Barrier()
}

// sectionTicket is one Sections construct's entry: the next block to
// hand out, and how many members have found none left.
type sectionTicket struct{ next, done int }

// Sections distributes the given blocks over the team: each block runs
// exactly once, on whichever thread claims it first, followed by an
// implicit barrier. Every team member must call Sections with the same
// block count, as OpenMP requires.
func (tc *ThreadContext) Sections(blocks ...func()) error {
	epoch := tc.sectionsCount
	tc.sectionsCount++
	tm := tc.team
	for {
		tm.sectionsMu.Lock()
		st := tm.sectionTickets[epoch]
		if st == nil {
			st = &sectionTicket{}
			if tm.sectionTickets == nil {
				tm.sectionTickets = make(map[int]*sectionTicket)
			}
			tm.sectionTickets[epoch] = st
		}
		i := st.next
		if i < len(blocks) {
			st.next++
		} else if st.done++; st.done == tm.n {
			delete(tm.sectionTickets, epoch)
		}
		tm.sectionsMu.Unlock()
		if i >= len(blocks) {
			break
		}
		if tr := obs.Default(); tr != nil {
			sp := tr.Span(obs.PIDOMP, tc.lane, "omp", "section").Trace(tc.trace).Int("block", int64(i))
			blocks[i]()
			sp.End()
		} else {
			blocks[i]()
		}
	}
	return tc.Barrier()
}

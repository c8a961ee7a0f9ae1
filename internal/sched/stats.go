package sched

// workerStats is one participant's hot counter block. Every field is
// cache-line padded: the counters are bumped from exactly one worker
// goroutine on the scheduling fast paths (Join spawn/inline, steal,
// chunk claim), and sharing a line between two workers — or between a
// worker and the runtime's admission counters — would reintroduce the
// false sharing the PR 6 contention pass removed (see
// BenchmarkCounterInc).
type workerStats struct {
	steals      PaddedInt64
	spawned     PaddedInt64
	inlined     PaddedInt64
	parks       PaddedInt64
	unparks     PaddedInt64
	grainClaims PaddedInt64
}

// snapshot reads the block into the exported form.
func (s *workerStats) snapshot() WorkerSnapshot {
	return WorkerSnapshot{
		Steals:      s.steals.Load(),
		Spawned:     s.spawned.Load(),
		Inlined:     s.inlined.Load(),
		Parks:       s.parks.Load(),
		Unparks:     s.unparks.Load(),
		GrainClaims: s.grainClaims.Load(),
	}
}

// WorkerSnapshot is one participant's introspection view: the live
// deque depth plus the lifetime counters. External (non-worker)
// participants — Do callers and region-calling goroutines — aggregate
// into a single snapshot with ID -1 and no deque.
type WorkerSnapshot struct {
	ID          int   `json:"id"`
	DequeDepth  int   `json:"deque_depth"`
	Parked      bool  `json:"parked"`
	Steals      int64 `json:"steals"`
	Spawned     int64 `json:"spawned"`
	Inlined     int64 `json:"inlined"`
	Parks       int64 `json:"parks"`
	Unparks     int64 `json:"unparks"`
	GrainClaims int64 `json:"grain_claims"`
}

// Snapshot is the whole-runtime introspection document served by
// GET /debug/sched: admission state, lifetime totals, and the
// per-worker breakdown. Like Stats, Queued and InFlight come from one
// packed atomic word so the pair is mutually consistent; the
// per-worker counters are independently-read atomics, so across
// workers the snapshot is approximate while work is in flight — fine
// for the operator question it answers ("which worker is starving,
// who is stealing from whom, how deep are the deques").
type Snapshot struct {
	Workers       int              `json:"workers"`
	QueueCap      int              `json:"queue_cap"`
	Queued        int              `json:"queued"`
	InFlight      int              `json:"in_flight"`
	Submitted     int64            `json:"submitted"`
	Shed          int64            `json:"shed"`
	Completed     int64            `json:"completed"`
	Steals        int64            `json:"steals"`
	RangeSteals   int64            `json:"range_steals"`
	Spawned       int64            `json:"spawned"`
	Inlined       int64            `json:"inlined"`
	GrainClaims   int64            `json:"grain_claims"`
	Parks         int64            `json:"parks"`
	ActiveRegions int              `json:"active_regions"`
	Attached      int              `json:"attached_participants"`
	External      WorkerSnapshot   `json:"external"`
	PerWorker     []WorkerSnapshot `json:"per_worker"`
}

// Introspect snapshots the full runtime state for the debug surface.
// Nil-safe: a nil runtime yields the zero Snapshot.
func (r *Runtime) Introspect() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := r.qstate.Load()
	snap := Snapshot{
		Workers:   len(r.workers),
		QueueCap:  cap(r.submitq),
		Queued:    int(s >> 32),
		InFlight:  int(s & 0xffffffff),
		Submitted: r.submitted.Load(),
		Shed:      r.shed.Load(),
		Completed: r.completed.Load(),
		PerWorker: make([]WorkerSnapshot, 0, len(r.workers)),
	}
	for _, w := range r.workers {
		ws := w.stats.snapshot()
		ws.ID = w.id
		ws.DequeDepth = int(w.deque.size())
		ws.Parked = w.parked.Load()
		snap.PerWorker = append(snap.PerWorker, ws)
		snap.Steals += ws.Steals
		snap.Spawned += ws.Spawned
		snap.Inlined += ws.Inlined
		snap.GrainClaims += ws.GrainClaims
		snap.Parks += ws.Parks
	}
	ext := r.external.snapshot()
	ext.ID = -1
	snap.External = ext
	snap.Steals += ext.Steals
	snap.Spawned += ext.Spawned
	snap.Inlined += ext.Inlined
	snap.GrainClaims += ext.GrainClaims
	snap.RangeSteals = r.rangeSteals.Load()
	regions := *r.regions.Load()
	snap.ActiveRegions = len(regions)
	for _, reg := range regions {
		snap.RangeSteals += reg.pool.Steals()
	}
	snap.Attached = len(*r.all.Load()) - len(r.workers)
	return snap
}

package sched

// workerStats is one participant's hot counter block. Every field is
// cache-line padded: the counters are bumped from exactly one worker
// goroutine on the scheduling paths (park, unpark, chunk claim), and
// sharing a line between two workers — or between a worker and the
// runtime's admission counters — would reintroduce false sharing (see
// BenchmarkCounterInc).
type workerStats struct {
	parks       PaddedInt64
	unparks     PaddedInt64
	grainClaims PaddedInt64
}

// snapshot reads the block into the exported form.
func (s *workerStats) snapshot() WorkerSnapshot {
	return WorkerSnapshot{
		Parks:       s.parks.Load(),
		Unparks:     s.unparks.Load(),
		GrainClaims: s.grainClaims.Load(),
	}
}

// WorkerSnapshot is one participant's introspection view: the parked
// flag plus the lifetime counters. External (non-worker) participants,
// the goroutines that call ParallelIndexed, aggregate into a single
// snapshot with ID -1.
type WorkerSnapshot struct {
	ID          int   `json:"id"`
	Parked      bool  `json:"parked"`
	Parks       int64 `json:"parks"`
	Unparks     int64 `json:"unparks"`
	GrainClaims int64 `json:"grain_claims"`
}

// Snapshot is the whole-runtime introspection document served by
// GET /debug/sched: admission state, lifetime totals, and the
// per-worker breakdown. Queued and InFlight come from one packed
// atomic word, so the pair is mutually consistent: InFlight never
// reads above Workers and Queued never above QueueCap. The per-worker
// counters are independently-read atomics, so across workers the
// snapshot is approximate while work is in flight — fine for the
// operator question it answers ("which worker is starving, which
// regions rebalance").
type Snapshot struct {
	Workers   int   `json:"workers"`
	QueueCap  int   `json:"queue_cap"`
	Queued    int   `json:"queued"`
	InFlight  int   `json:"in_flight"`
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	// Steals is always 0: the only stealing is of index ranges inside
	// regions, which RangeSteals counts. It stays in the wire form for
	// readers that decode it.
	Steals        int64            `json:"steals"`
	RangeSteals   int64            `json:"range_steals"`
	GrainClaims   int64            `json:"grain_claims"`
	Parks         int64            `json:"parks"`
	ActiveRegions int              `json:"active_regions"`
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
		ws.Parked = w.parked.Load()
		snap.PerWorker = append(snap.PerWorker, ws)
		snap.GrainClaims += ws.GrainClaims
		snap.Parks += ws.Parks
	}
	ext := r.external.snapshot()
	ext.ID = -1
	snap.External = ext
	snap.GrainClaims += ext.GrainClaims
	snap.RangeSteals = r.rangeSteals.Load()
	regions := *r.regions.Load()
	snap.ActiveRegions = len(regions)
	for _, reg := range regions {
		snap.RangeSteals += reg.pool.Steals()
	}
	return snap
}

package obs

import (
	"strconv"

	"pblparallel/internal/sched"
)

// SchedGatherer adapts a scheduler runtime's introspection snapshot
// into metric families, giving the work-stealing internals a
// Prometheus surface: per-worker parked flags as labeled gauges,
// per-worker park/claim ledgers as labeled counters, and the
// runtime-wide totals. The goroutines that call ParallelIndexed
// aggregate under worker="external". A nil runtime gathers nothing, so
// wiring is unconditional.
func SchedGatherer(rt *sched.Runtime) Gatherer {
	return GathererFunc(func() []Family {
		if rt == nil {
			return nil
		}
		snap := rt.Introspect()
		perWorker := func(name, help, typ string, value func(sched.WorkerSnapshot) float64, external bool) Family {
			f := Family{Name: name, Help: help, Type: typ}
			for _, w := range snap.PerWorker {
				f.Points = append(f.Points, Point{
					Labels: []Label{{Key: "worker", Value: strconv.Itoa(w.ID)}},
					Value:  value(w),
				})
			}
			if external {
				f.Points = append(f.Points, Point{
					Labels: []Label{{Key: "worker", Value: "external"}},
					Value:  value(snap.External),
				})
			}
			return f
		}
		scalar := func(name, help, typ string, v float64) Family {
			return Family{Name: name, Help: help, Type: typ, Points: []Point{{Value: v}}}
		}
		return []Family{
			scalar("sched_workers", "Worker goroutines owned by the scheduler runtime.", "gauge", float64(snap.Workers)),
			scalar("sched_active_regions", "Indexed parallel regions currently executing.", "gauge", float64(snap.ActiveRegions)),
			scalar("sched_range_steals_total", "Index-range steals inside parallel regions.", "counter", float64(snap.RangeSteals)),
			perWorker("sched_worker_parked", "Whether each worker is parked (1) or running (0).", "gauge",
				func(w sched.WorkerSnapshot) float64 {
					if w.Parked {
						return 1
					}
					return 0
				}, false),
			perWorker("sched_worker_grain_claims_total", "Grain-aligned index chunks claimed, by participant.", "counter",
				func(w sched.WorkerSnapshot) float64 { return float64(w.GrainClaims) }, true),
			perWorker("sched_worker_parks_total", "Times each worker parked with no visible work.", "counter",
				func(w sched.WorkerSnapshot) float64 { return float64(w.Parks) }, false),
			perWorker("sched_worker_unparks_total", "Times each worker woke from a park.", "counter",
				func(w sched.WorkerSnapshot) float64 { return float64(w.Unparks) }, false),
		}
	})
}

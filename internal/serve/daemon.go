package serve

import (
	"context"
	"net"
	"sync"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/store"
)

// Options is the Server's Config plus the persistent tier and the
// observability stack around it. Each field beyond Config holds the
// value of the pbld flag named in its comment.
type Options struct {
	Config
	CacheDir        string        // -cache-dir; empty keeps the cache memory-only
	CacheDiskMax    int64         // -cache-disk-max
	FlightRec       bool          // -flightrec
	FlightRecDir    string        // -flightrec-dir
	FlightRecWindow time.Duration // -flightrec-window
	Prof            bool          // -prof
	ProfInterval    time.Duration // -prof-interval
	ProfCPU         time.Duration // -prof-cpu
	TSDB            bool          // -tsdb
	TSDBInterval    time.Duration // -tsdb-interval: the clock's tick
	TSDBRetention   time.Duration // -tsdb-retention
	SLO             bool          // -slo (needs TSDB)
}

// Daemon is pbld assembled: the Server plus everything Open built
// around it.
type Daemon struct {
	*Server
	clock     *obs.Clock
	undo      []func() // reverses Open's installs, newest first
	closeOnce sync.Once
}

// Open assembles the daemon in order: the tracer (unless one is
// installed), profiler, flight recorder, a TSDB over the daemon's
// registry attached to the recorder, the rules whose trips trigger
// postmortems, one clock driving sampling, rules and the profiler, the
// persistent tier, and the Server. The clock waits for Serve. If a step
// fails, Open unwinds the ones before it.
func Open(o Options) (*Daemon, error) {
	if o.Registry == nil {
		o.Registry = obs.Metrics() // already gathers go_goroutines
	} else if o.SLO {
		o.Registry.RegisterGatherer(obs.BuildInfoGatherer()) // go_goroutines for the leak rule
	}
	reg := o.Registry
	d := &Daemon{}
	// The daemon always keeps an in-memory tracer so /debug/trace/{id}
	// answers; -trace may already have installed one that also exports.
	if obs.Default() == nil {
		tr := obs.NewTracer(obs.DefaultCapacity)
		reg.RegisterGatherer(tr)
		obs.Install(tr)
		d.undo = append(d.undo, func() { obs.Install(nil) })
	}
	var p *prof.Profiler
	if o.Prof {
		// Mutex/block sampling starts with the profiler: contention only
		// shows up in a postmortem if it was sampled before the incident.
		p = prof.New(prof.Config{CPUDuration: o.ProfCPU, MutexFraction: 100, BlockRate: 1_000_000, Registry: reg})
		prof.Install(p)
		d.undo = append(d.undo, func() { prof.Install(nil); p.Stop() })
	}
	var rec *flightrec.Recorder
	if o.FlightRec {
		rec = flightrec.New(flightrec.Config{Window: o.FlightRecWindow, Dir: o.FlightRecDir, Registry: reg})
		flightrec.Install(rec)
		d.undo = append(d.undo, func() { flightrec.Install(nil) })
	}
	// The TSDB gives every instrument on the registry history, and
	// postmortem bundles embed its window. The rules read only the TSDB.
	if o.TSDB {
		o.db = tsdb.New(tsdb.Config{Interval: o.TSDBInterval, Retention: o.TSDBRetention, Registry: reg})
		rec.AttachTSDB(o.db)
		d.undo = append(d.undo, func() { rec.AttachTSDB(nil) })
		if o.SLO {
			o.rules = slo.New(slo.Config{
				Objectives: slo.DefaultSLOs(),
				Source:     slo.TSDBSource{DB: o.db},
				Registry:   reg,
				OnTrip:     func(t slo.Trip) { flightrec.Active().Trigger(t.Reason, obs.TraceID{}) },
			})
		}
	}
	// Each tick samples, then evaluates the rules over that sample, then
	// cycles the profiler. Disabled jobs are nil-safe no-ops.
	d.clock = obs.NewClock(o.TSDBInterval)
	d.clock.Every(o.TSDBInterval, o.db.SampleOnce)
	d.clock.Every(o.TSDBInterval, func(now time.Time) { o.rules.Eval(now) })
	d.clock.Every(o.ProfInterval, p.Cycle)
	if o.CacheDir != "" {
		var err error
		o.disk, err = store.Open(o.CacheDir, store.Options{MaxBytes: o.CacheDiskMax, Injector: o.Injector, Registry: reg})
		if err != nil {
			d.Close()
			return nil, err
		}
	}
	d.Server = New(o.Config)
	return d, nil
}

// Serve starts the clock, accepts on ln until ctx is canceled, drains,
// and closes the daemon.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	d.clock.Start()
	defer d.Close()
	return d.Server.Serve(ctx, ln)
}

// Postmortem samples the TSDB once more, so the bundle's window reaches
// now, and triggers the installed flight recorder. It returns the
// bundle's path, or "" when none was written to a directory.
func (d *Daemon) Postmortem(reason string) string {
	d.cfg.db.SampleOnce(time.Now())
	return flightrec.Active().Trigger(reason, obs.TraceID{})
}

// Close drains the Server, stops the clock, detaches the TSDB and
// uninstalls the globals Open installed. Idempotent.
func (d *Daemon) Close() {
	d.closeOnce.Do(func() {
		if d.Server != nil {
			d.Server.Close()
		}
		d.clock.Stop()
		for i := len(d.undo) - 1; i >= 0; i-- {
			d.undo[i]()
		}
	})
}

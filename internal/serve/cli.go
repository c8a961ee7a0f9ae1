package serve

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/store"
)

// Command is the daemon entry point shared by cmd/pbld and the
// `pblstudy serve` subcommand: it parses the serving flags, arms the
// optional service-layer fault plan, binds the listener, and serves
// until SIGINT/SIGTERM triggers the graceful drain.
func Command(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "pool workers (0 = all CPUs)")
	queue := fs.Int("queue", 32, "admission queue depth; waiting requests beyond it are shed with 429")
	cacheEntries := fs.Int("cache", 1024, "result cache capacity (entries)")
	cacheDir := fs.String("cache-dir", "", "persistent cache tier directory: memory misses probe it, computed responses and evictions spill into it, and the warm set survives restarts (empty = memory-only)")
	cacheDiskMax := fs.Int64("cache-disk-max", store.DefaultMaxBytes, "persistent tier size bound in compressed bytes (LRU eviction past it)")
	timeout := fs.Duration("timeout", 120*time.Second, "default per-request deadline (Request-Timeout header may shorten it)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain bound on SIGTERM")
	maxSeeds := fs.Int("max-seeds", 1000, "largest accepted /v1/sweep width")
	retries := fs.Int("retries", 3, "engine retry budget for transient faults")
	// The service-layer chaos flags, off by default; arming any
	// probability installs a deterministic injector across the
	// admission, backend, and cache sites.
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault-decision stream")
	qfull := fs.Float64("fault-qfull", 0, "probability a request is shed at admission as if the queue were full")
	slow := fs.Float64("fault-slow", 0, "probability a computation is delayed (latency only)")
	corrupt := fs.Float64("fault-corrupt", 0, "probability a cache read sees corrupted bytes (healed by recompute)")
	storeCorrupt := fs.Float64("fault-store-corrupt", 0, "probability a persistent-tier read sees corrupted bytes (healed by delete + recompute)")
	storeRead := fs.Float64("fault-store-read", 0, "probability a persistent-tier read fails (degrades to a miss)")
	storeWrite := fs.Float64("fault-store-write", 0, "probability a persistent-tier write fails (entry not persisted)")
	frec := fs.Bool("flightrec", true, "run the black-box flight recorder (/debug/flightrec, postmortems on 5xx/shed-burst/SIGQUIT)")
	frecDir := fs.String("flightrec-dir", "", "also write triggered postmortem bundles to this directory (empty = in-memory only)")
	frecWindow := fs.Duration("flightrec-window", 30*time.Second, "how far back the flight recorder's window reaches")
	profOn := fs.Bool("prof", true, "run the continuous profiler (/debug/prof ring; postmortem bundles ship with pprof profiles)")
	profInterval := fs.Duration("prof-interval", 30*time.Second, "continuous-profiler capture cadence (rounded up to a whole number of -tsdb-interval ticks)")
	profCPU := fs.Duration("prof-cpu", time.Second, "CPU sampling window per continuous-profiler cycle")
	tsdbOn := fs.Bool("tsdb", true, "run the embedded metrics time-series store (/debug/tsdb range queries; postmortem bundles embed the history window)")
	tsdbInterval := fs.Duration("tsdb-interval", 5*time.Second, "tick of the observability clock: TSDB sampling and rule evaluation cadence")
	tsdbRetention := fs.Duration("tsdb-retention", time.Hour, "TSDB history bound")
	sloOn := fs.Bool("slo", true, "evaluate the default serving SLOs (99.9% availability, 99% of requests < 250ms) with multi-window burn-rate alerts at /debug/slo, and the goroutine-leak and scheduler-stall rules (needs -tsdb)")
	obsCLI := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsCLI.Start()
	if err != nil {
		return err
	}
	log := obs.Log().With(name)
	// The daemon always keeps an in-memory tracer so /debug/trace/{id}
	// answers; -trace additionally writes the Chrome export on exit.
	if obs.Default() == nil {
		tr := obs.NewTracer(obs.DefaultCapacity)
		obs.Metrics().RegisterGatherer(tr)
		obs.Install(tr)
	}

	probs := FaultProbs{
		QueueFull: *qfull, BackendSlow: *slow, CacheCorrupt: *corrupt,
		StoreCorrupt: *storeCorrupt, StoreRead: *storeRead, StoreWrite: *storeWrite,
	}
	var inj *fault.Injector
	if probs != (FaultProbs{}) {
		inj, err = fault.New(ServiceFaultPlan(*faultSeed, probs))
		if err != nil {
			sess.Close()
			return err
		}
		log.Info(context.Background(), "service fault plan armed",
			"seed", *faultSeed, "qfull", *qfull, "slow", *slow, "corrupt", *corrupt,
			"store-corrupt", *storeCorrupt, "store-read", *storeRead, "store-write", *storeWrite)
	}

	var p *prof.Profiler
	if *profOn {
		// Mutex/block sampling is enabled alongside the profiler: the
		// scheduler's contention only shows up in postmortems if the
		// runtime was sampling it before the incident.
		p = prof.New(prof.Config{
			CPUDuration:   *profCPU,
			MutexFraction: 100,
			BlockRate:     1_000_000, // one sample per ms of blocking
		})
		prof.Install(p)
		defer func() {
			prof.Install(nil)
			p.Stop()
		}()
	}

	if *frec {
		rec := flightrec.New(flightrec.Config{Window: *frecWindow, Dir: *frecDir})
		flightrec.Install(rec)
		defer flightrec.Install(nil)
		// SIGQUIT dumps a postmortem and keeps serving — the operator's
		// "what just happened" button. (Catching it replaces Go's
		// stack-dump-and-exit default while the daemon runs.)
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		defer signal.Stop(quitc)
		go func() {
			for range quitc {
				if path := rec.Trigger("sigquit", obs.TraceID{}); path != "" {
					log.Info(context.Background(), "flight recorder postmortem written", "path", path)
				} else {
					log.Info(context.Background(), "flight recorder postmortem captured", "fetch", "/debug/flightrec?last=1")
				}
			}
		}()
	}

	// The TSDB samples the process registry — every subsystem's
	// instruments gain history — and attaches to the flight recorder so
	// postmortem bundles embed the window around each trigger. The rule
	// engine reads only the TSDB, and each trip triggers a postmortem.
	var db *tsdb.DB
	var rules *slo.Evaluator
	if *tsdbOn {
		db = tsdb.New(tsdb.Config{Interval: *tsdbInterval, Retention: *tsdbRetention})
		flightrec.Active().AttachTSDB(db)
		log.Info(context.Background(), "time-series store sampling",
			"interval", *tsdbInterval, "retention", *tsdbRetention)
		if *sloOn {
			rules = slo.New(slo.Config{
				Objectives: slo.DefaultSLOs(),
				Source:     slo.TSDBSource{DB: db},
				OnTrip: func(t slo.Trip) {
					flightrec.Active().Trigger(t.Reason, obs.TraceID{})
				},
			})
		}
	}

	// One clock drives every background observability job, in order on
	// each tick: TSDB sampling, rule evaluation over that fresh sample,
	// and the profiler cycle. Disabled jobs are nil-safe no-ops.
	clock := obs.NewClock(*tsdbInterval)
	clock.Every(*tsdbInterval, db.SampleOnce)
	clock.Every(*tsdbInterval, func(now time.Time) { rules.Eval(now) })
	clock.Every(*profInterval, p.Cycle)

	var disk *store.Store
	if *cacheDir != "" {
		disk, err = store.Open(*cacheDir, store.Options{
			MaxBytes: *cacheDiskMax,
			Injector: inj,
		})
		if err != nil {
			sess.Close()
			return err
		}
		st := disk.Stats()
		log.Info(context.Background(), "persistent cache tier open",
			"dir", *cacheDir, "max-bytes", *cacheDiskMax,
			"entries", st.Entries, "bytes", st.Bytes)
	}

	srv := New(Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
		MaxSweepSeeds:  *maxSeeds,
		Retries:        *retries,
		Injector:       inj,
		DiskStore:      disk,
		TSDB:           db,
		SLO:            rules,
	})
	clock.Start()
	defer clock.Stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sess.Close()
		return err
	}
	log.Info(context.Background(), "serving",
		"addr", fmt.Sprintf("http://%s", ln.Addr()),
		"endpoints", "/v1/run /v1/sweep /v1/cohort /v1/spring2019 /healthz /readyz /metrics /debug/trace/{id} /debug/flightrec /debug/sched /debug/prof /debug/tsdb /debug/slo")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = srv.Serve(ctx, ln)
	log.Info(context.Background(), "drained")
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// FaultProbs bundles the service-layer fault probabilities: the three
// original sites plus the persistent tier's read/write/corrupt sites.
type FaultProbs struct {
	QueueFull    float64
	BackendSlow  float64
	CacheCorrupt float64
	StoreCorrupt float64
	StoreRead    float64
	StoreWrite   float64
}

// ServiceFaultPlan builds the service-layer fault plan the daemon's
// chaos flags and `pblstudy chaos -serve` share: injected admission
// sheds, backend slowdowns (2ms max), in-memory cache corruption, and
// the persistent tier's corruption/read/write faults.
func ServiceFaultPlan(seed int64, p FaultProbs) fault.Plan {
	return fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: fault.SiteServeQueue, Kind: fault.QueueFull, Prob: p.QueueFull},
		{Site: fault.SiteServeBackend, Kind: fault.BackendSlow, Prob: p.BackendSlow, Max: 2e-3},
		{Site: fault.SiteServeCache, Kind: fault.CacheCorrupt, Prob: p.CacheCorrupt},
		{Site: fault.SiteStoreCorrupt, Kind: fault.CacheCorrupt, Prob: p.StoreCorrupt},
		{Site: fault.SiteStoreRead, Kind: fault.DiskReadErr, Prob: p.StoreRead},
		{Site: fault.SiteStoreWrite, Kind: fault.DiskWriteErr, Prob: p.StoreWrite},
	}}
}

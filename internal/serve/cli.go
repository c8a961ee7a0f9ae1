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
	"pblparallel/internal/store"
)

// Command is the daemon entry point shared by cmd/pbld and the
// `pblstudy serve` subcommand: it parses the serving flags into
// Options, arms the optional service-layer fault plan, binds the
// listener, opens the daemon, and serves until SIGINT/SIGTERM triggers
// the graceful drain.
func Command(name string, args []string) (err error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var o Options
	def := Config{}.withDefaults() // the flag defaults are the Config defaults
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&o.Workers, "workers", 0, "pool workers (0 = all CPUs)")
	fs.IntVar(&o.Queue, "queue", def.Queue, "admission queue depth; waiting requests beyond it are shed with 429")
	fs.IntVar(&o.CacheEntries, "cache", def.CacheEntries, "result cache capacity (entries)")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persistent cache tier directory: memory misses probe it, computed responses and evictions spill into it, and the warm set survives restarts (empty = memory-only)")
	fs.Int64Var(&o.CacheDiskMax, "cache-disk-max", store.DefaultMaxBytes, "persistent tier size bound in compressed bytes (LRU eviction past it)")
	fs.DurationVar(&o.DefaultTimeout, "timeout", def.DefaultTimeout, "default per-request deadline (Request-Timeout header may shorten it)")
	fs.DurationVar(&o.DrainTimeout, "drain", def.DrainTimeout, "graceful-drain bound on SIGTERM")
	fs.IntVar(&o.MaxSweepSeeds, "max-seeds", def.MaxSweepSeeds, "largest accepted /v1/sweep width")
	fs.IntVar(&o.Retries, "retries", def.Retries, "engine retry budget for transient faults")
	// The service-layer chaos flags, off by default; arming any
	// probability installs a deterministic injector across the
	// admission, backend, and cache sites.
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault-decision stream")
	var probs FaultProbs
	fs.Float64Var(&probs.QueueFull, "fault-qfull", 0, "probability a request is shed at admission as if the queue were full")
	fs.Float64Var(&probs.BackendSlow, "fault-slow", 0, "probability a computation is delayed (latency only)")
	fs.Float64Var(&probs.CacheCorrupt, "fault-corrupt", 0, "probability a cache read sees corrupted bytes (healed by recompute)")
	fs.Float64Var(&probs.StoreCorrupt, "fault-store-corrupt", 0, "probability a persistent-tier read sees corrupted bytes (healed by delete + recompute)")
	fs.Float64Var(&probs.StoreRead, "fault-store-read", 0, "probability a persistent-tier read fails (degrades to a miss)")
	fs.Float64Var(&probs.StoreWrite, "fault-store-write", 0, "probability a persistent-tier write fails (entry not persisted)")
	fs.BoolVar(&o.FlightRec, "flightrec", true, "run the black-box flight recorder (/debug/flightrec, postmortems on 5xx/shed-burst/SIGQUIT)")
	fs.StringVar(&o.FlightRecDir, "flightrec-dir", "", "also write triggered postmortem bundles to this directory (empty = in-memory only)")
	fs.DurationVar(&o.FlightRecWindow, "flightrec-window", 30*time.Second, "how far back the flight recorder's window reaches")
	fs.BoolVar(&o.Prof, "prof", true, "run the continuous profiler (/debug/prof ring; postmortem bundles ship with pprof profiles)")
	fs.DurationVar(&o.ProfInterval, "prof-interval", 30*time.Second, "continuous-profiler capture cadence (rounded up to a whole number of -tsdb-interval ticks)")
	fs.DurationVar(&o.ProfCPU, "prof-cpu", time.Second, "CPU sampling window per continuous-profiler cycle")
	fs.BoolVar(&o.TSDB, "tsdb", true, "run the embedded metrics time-series store (/debug/tsdb range queries; postmortem bundles embed the history window)")
	fs.DurationVar(&o.TSDBInterval, "tsdb-interval", 5*time.Second, "tick of the observability clock: TSDB sampling and rule evaluation cadence")
	fs.DurationVar(&o.TSDBRetention, "tsdb-retention", time.Hour, "TSDB history bound")
	fs.BoolVar(&o.SLO, "slo", true, "evaluate the default serving SLOs (99.9% availability, 99% of requests < 250ms) with multi-window burn-rate alerts at /debug/slo, and the goroutine-leak and scheduler-stall rules (needs -tsdb)")
	obsCLI := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsCLI.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	log := obs.Log().With(name)

	if probs != (FaultProbs{}) {
		if o.Injector, err = fault.New(ServiceFaultPlan(*faultSeed, probs)); err != nil {
			return err
		}
		log.Info(context.Background(), "service fault plan armed",
			"seed", *faultSeed, "qfull", probs.QueueFull, "slow", probs.BackendSlow, "corrupt", probs.CacheCorrupt,
			"store-corrupt", probs.StoreCorrupt, "store-read", probs.StoreRead, "store-write", probs.StoreWrite)
	}

	// Bind first: a busy address must fail before anything is built.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	d, err := Open(o)
	if err != nil {
		ln.Close()
		return err
	}
	if o.TSDB {
		log.Info(context.Background(), "time-series store sampling",
			"interval", o.TSDBInterval, "retention", o.TSDBRetention)
	}
	if o.CacheDir != "" {
		st := d.Stats().Store
		log.Info(context.Background(), "persistent cache tier open",
			"dir", o.CacheDir, "max-bytes", o.CacheDiskMax, "entries", st.Entries, "bytes", st.Bytes)
	}
	if o.FlightRec {
		// SIGQUIT dumps a postmortem and keeps serving — the operator's
		// "what just happened" button. (Catching it replaces Go's
		// stack-dump-and-exit default while the daemon runs.)
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		defer signal.Stop(quitc)
		go func() {
			for range quitc {
				if path := d.Postmortem("sigquit"); path != "" {
					log.Info(context.Background(), "flight recorder postmortem written", "path", path)
				} else {
					log.Info(context.Background(), "flight recorder postmortem captured", "fetch", "/debug/flightrec?last=1")
				}
			}
		}()
	}
	log.Info(context.Background(), "serving",
		"addr", fmt.Sprintf("http://%s", ln.Addr()),
		"endpoints", "/v1/run /v1/sweep /v1/cohort /v1/spring2019 /healthz /readyz /metrics /debug/trace/{id} /debug/flightrec /debug/sched /debug/prof /debug/tsdb /debug/slo")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = d.Serve(ctx, ln)
	log.Info(context.Background(), "drained")
	return err
}

// FaultProbs bundles the service-layer fault probabilities: the three
// original sites plus the persistent tier's read/write/corrupt sites.
type FaultProbs struct {
	QueueFull    float64 `json:"qfull"`
	BackendSlow  float64 `json:"slowreq"`
	CacheCorrupt float64 `json:"corrupt"`
	StoreCorrupt float64 `json:"store_corrupt"`
	StoreRead    float64 `json:"store_read"`
	StoreWrite   float64 `json:"store_write"`
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

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/serve"
	"pblparallel/internal/store"
)

// serveChaosOpts carries the service-layer chaos sweep parameters from
// cmdChaos's flag set.
type serveChaosOpts struct {
	seeds     int
	start     int64
	workers   int
	retries   int
	faultSeed int64
	// The runtime fault mix (fires inside studies, absorbed by the
	// engine's retry layer under the service).
	runtimeRules []fault.Rule
	// The service-layer probabilities.
	qfull, slowreq, corrupt float64
	// The persistent-tier probabilities (armed with -restart).
	storeCorrupt, storeRead, storeWrite float64
	// restart replaces the second chaotic pass with a kill-and-restart:
	// the first server (memory + disk tiers, faults armed) is drained
	// and closed, a second server reopens the same cache directory with
	// a cold memory cache, and the sweep must come back byte-identical
	// — served from the restarted daemon's disk tier.
	restart  bool
	cacheDir string // shared across the restart; empty = fresh temp dir
	// flightrec runs tracing + the flight recorder across the whole
	// sweep: the byte-invariance assertion then also proves recording
	// never changes response bytes. flightrecDir receives triggered
	// postmortem bundles (CI uploads them when the sweep fails).
	flightrec    bool
	flightrecDir string
	asJSON       bool
}

// runServeChaos asserts the service-layer chaos contract: the same
// seed sweep, issued as /v1/run requests against a clean server and
// against one with the full fault mix armed (service sites + runtime
// sites), produces byte-identical response bodies — and a second pass
// over the chaotic server (cache hits, corruption heals) stays
// identical too. Returns whether every response matched.
func runServeChaos(o serveChaosOpts) bool {
	if o.flightrec {
		if obs.Default() == nil {
			obs.Install(obs.NewTracer(obs.DefaultCapacity))
			defer obs.Install(nil)
		}
		flightrec.Install(flightrec.New(flightrec.Config{Dir: o.flightrecDir, Window: 5 * time.Minute}))
		defer flightrec.Install(nil)
		// The continuous profiler runs across the sweep on a tight
		// cadence, so the byte-invariance assertion also proves that CPU
		// sampling, heap snapshots, and mutex/block sampling never change
		// response bytes — and a drift postmortem ships real profiles.
		p := prof.New(prof.Config{
			Interval:      2 * time.Second,
			CPUDuration:   500 * time.Millisecond,
			MutexFraction: 100,
			BlockRate:     1_000_000,
		})
		p.Start()
		prof.Install(p)
		defer func() {
			prof.Install(nil)
			p.Stop()
		}()
	}
	clean := startChaosServer(serve.Config{Workers: o.workers, Queue: o.seeds, Retries: o.retries})
	baseline, err := sweepOverHTTP(clean.base, o.start, o.seeds, false)
	clean.stop()
	if err != nil {
		fail(fmt.Errorf("baseline serve sweep: %w", err))
	}

	plan := serve.ServiceFaultPlan(o.faultSeed, serve.FaultProbs{
		QueueFull: o.qfull, BackendSlow: o.slowreq, CacheCorrupt: o.corrupt,
		StoreCorrupt: o.storeCorrupt, StoreRead: o.storeRead, StoreWrite: o.storeWrite,
	})
	plan.Rules = append(plan.Rules, o.runtimeRules...)
	inj, err := fault.New(plan)
	if err != nil {
		fail(err)
	}
	var (
		passes   [2][][]byte
		stats    [2]serve.Stats
		lastTSDB *tsdb.DB // the last chaotic server's history, for failure artifacts
	)
	if o.restart {
		// Kill-and-restart: each pass runs on its own daemon over the
		// same cache directory. Pass 1 populates the persistent tier
		// through the full fault mix; stopping the server is the "kill"
		// (graceful drain flushes the write-behind queue, exactly what
		// SIGTERM does to pbld); pass 2's freshly started daemon has a
		// cold memory cache, so its responses come from verified disk
		// reads — healed by recompute wherever store.corrupt fired.
		dir := o.cacheDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "pblchaos-store-")
			if err != nil {
				fail(err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		for pass := 0; pass < 2; pass++ {
			disk, err := store.Open(dir, store.Options{Injector: inj, Registry: obs.NewRegistry()})
			if err != nil {
				fail(fmt.Errorf("chaos serve restart (pass %d): %w", pass+1, err))
			}
			srv := startChaosServer(serve.Config{Workers: o.workers, Queue: o.seeds, Retries: o.retries, Injector: inj, DiskStore: disk})
			lastTSDB = srv.db
			bodies, err := sweepOverHTTP(srv.base, o.start, o.seeds, true)
			if err != nil {
				srv.stop()
				fail(fmt.Errorf("chaos serve sweep (pass %d): %w", pass+1, err))
			}
			stats[pass] = srv.srv.Stats()
			srv.stop()
			passes[pass] = bodies
		}
	} else {
		chaotic := startChaosServer(serve.Config{Workers: o.workers, Queue: o.seeds, Retries: o.retries, Injector: inj})
		lastTSDB = chaotic.db
		for pass := 0; pass < 2; pass++ {
			bodies, err := sweepOverHTTP(chaotic.base, o.start, o.seeds, true)
			if err != nil {
				chaotic.stop()
				fail(fmt.Errorf("chaos serve sweep (pass %d): %w", pass+1, err))
			}
			passes[pass] = bodies
		}
		stats[1] = chaotic.srv.Stats()
		chaotic.stop()
	}
	var drifted []int64
	for i := 0; i < o.seeds; i++ {
		if !bytes.Equal(baseline[i], passes[0][i]) || !bytes.Equal(baseline[i], passes[1][i]) {
			drifted = append(drifted, o.start+int64(i))
		}
	}

	report := serveChaosJSON{
		Seeds:     o.seeds,
		Start:     o.start,
		Retries:   o.retries,
		FaultSeed: o.faultSeed,
		Restart:   o.restart,
		Plan: map[string]float64{
			"qfull": o.qfull, "slowreq": o.slowreq, "corrupt": o.corrupt,
			"store_corrupt": o.storeCorrupt, "store_read": o.storeRead, "store_write": o.storeWrite,
		},
		Faults:           inj.Stats(),
		Shed:             stats[0].Shed + stats[1].Shed,
		CacheHits:        stats[0].Cache.Hits + stats[1].Cache.Hits,
		CacheMisses:      stats[0].Cache.Misses + stats[1].Cache.Misses,
		CacheCoalesced:   stats[0].Cache.Coalesced + stats[1].Cache.Coalesced,
		CorruptionHealed: stats[0].Cache.CorruptRecovered + stats[1].Cache.CorruptRecovered,
		StorePuts:        stats[0].Store.Puts + stats[1].Store.Puts,
		StoreHealed:      stats[0].Store.CorruptionsHealed + stats[1].Store.CorruptionsHealed,
		StoreReadErrors:  stats[0].Store.ReadErrors + stats[1].Store.ReadErrors,
		StoreWriteErrors: stats[0].Store.WriteErrors + stats[1].Store.WriteErrors,
		RestartDiskHits:  stats[1].Store.DiskHits,
		DriftedSeeds:     drifted,
		Identical:        len(drifted) == 0,
	}
	// Byte-identity alone is not the whole restart contract: the second
	// pass must actually have been served from the reopened disk tier,
	// or the phase proved nothing about persistence.
	report.OK = report.Identical && (!o.restart || report.RestartDiskHits > 0)
	if !report.OK {
		// The black box earns its keep: capture the sweep's last window
		// so CI can attach exactly what the service saw at drift time.
		if path := flightrec.Active().Trigger("chaos-serve-drift", obs.TraceID{}); path != "" {
			obs.Log().With("pblstudy chaos").Error(context.Background(),
				"sweep drifted; flight recorder postmortem written", "path", path)
		}
		// And the continuous-profiling ring lands next to the bundles:
		// every snapshot from the sweep, ready for `go tool pprof`.
		if o.flightrecDir != "" {
			if n, err := prof.Active().DumpRing(o.flightrecDir); err == nil && n > 0 {
				obs.Log().With("pblstudy chaos").Error(context.Background(),
					"continuous-profiling ring dumped", "dir", o.flightrecDir, "snapshots", n)
			}
			// The last chaotic server's full metrics history joins the
			// artifacts — the same window /debug/tsdb would have served.
			if lastTSDB != nil {
				if path, err := dumpTSDBSnapshot(lastTSDB, o.flightrecDir); err == nil {
					obs.Log().With("pblstudy chaos").Error(context.Background(),
						"tsdb snapshot dumped", "path", path)
				}
			}
		}
	}
	if o.asJSON {
		emitJSON(report)
	} else {
		renderServeChaos(report)
	}
	return report.OK
}

// dumpTSDBSnapshot writes the store's entire retained history as a
// JSON array of series dumps into dir, returning the path.
func dumpTSDBSnapshot(db *tsdb.DB, dir string) (string, error) {
	dump := db.DumpWindow(0, time.Now().UnixMilli())
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", err
	}
	path := dir + "/tsdb-snapshot.json"
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// serveChaosJSON is the machine-readable service-chaos report.
type serveChaosJSON struct {
	Seeds            int                 `json:"seeds"`
	Start            int64               `json:"start"`
	Retries          int                 `json:"retries"`
	FaultSeed        int64               `json:"fault_seed"`
	Restart          bool                `json:"restart"`
	Plan             map[string]float64  `json:"service_plan"`
	Faults           fault.StatsSnapshot `json:"faults"`
	Shed             int64               `json:"shed_429"`
	CacheHits        int64               `json:"cache_hits"`
	CacheMisses      int64               `json:"cache_misses"`
	CacheCoalesced   int64               `json:"cache_coalesced"`
	CorruptionHealed int64               `json:"cache_corruption_healed"`
	StorePuts        int64               `json:"store_puts,omitempty"`
	StoreHealed      int64               `json:"store_corruptions_healed,omitempty"`
	StoreReadErrors  int64               `json:"store_read_errors,omitempty"`
	StoreWriteErrors int64               `json:"store_write_errors,omitempty"`
	RestartDiskHits  int64               `json:"restart_disk_hits,omitempty"`
	DriftedSeeds     []int64             `json:"drifted_seeds,omitempty"`
	Identical        bool                `json:"identical"`
	OK               bool                `json:"ok"`
}

func renderServeChaos(r serveChaosJSON) {
	fmt.Printf("serve chaos sweep: %d seeds from %d over /v1/run, retry budget=%d, fault seed=%d\n",
		r.Seeds, r.Start, r.Retries, r.FaultSeed)
	fmt.Printf("service plan: qfull=%.3g slowreq=%.3g corrupt=%.3g store_corrupt=%.3g store_read=%.3g store_write=%.3g (+ runtime mix)\n",
		r.Plan["qfull"], r.Plan["slowreq"], r.Plan["corrupt"],
		r.Plan["store_corrupt"], r.Plan["store_read"], r.Plan["store_write"])
	fmt.Printf("faults: injected=%d", r.Faults.Injected)
	if len(r.Faults.ByKind) > 0 {
		b, _ := json.Marshal(r.Faults.ByKind)
		fmt.Printf(" %s", b)
	}
	fmt.Printf(" recovered=%d retries=%d\n", r.Faults.Recovered, r.Faults.Retries)
	fmt.Printf("service: shed(429)=%d cache hits=%d misses=%d coalesced=%d corruption healed=%d\n",
		r.Shed, r.CacheHits, r.CacheMisses, r.CacheCoalesced, r.CorruptionHealed)
	if r.Restart {
		fmt.Printf("store: puts=%d corruptions healed=%d read errs=%d write errs=%d; restarted pass disk hits=%d\n",
			r.StorePuts, r.StoreHealed, r.StoreReadErrors, r.StoreWriteErrors, r.RestartDiskHits)
	}
	switch {
	case r.OK && r.Restart:
		fmt.Println("result: OK — every response byte-identical to the clean server, including the pass served from the restarted daemon's disk tier")
	case r.OK:
		fmt.Println("result: OK — every response byte-identical to the clean server, both passes")
	case r.Identical:
		fmt.Printf("result: FAIL — bytes identical but the restarted pass recorded %d disk hits; persistence not exercised\n", r.RestartDiskHits)
	default:
		fmt.Printf("result: DRIFT — %d seed(s) diverged: %v\n", len(r.DriftedSeeds), r.DriftedSeeds)
	}
}

// chaosServer is one ephemeral in-process daemon.
type chaosServer struct {
	srv  *serve.Server
	db   *tsdb.DB
	base string
	stop func()
}

// startChaosServer binds a server on a loopback port and returns its
// base URL plus a blocking stopper that drains it. Each server gets a
// private metrics registry unless the caller supplies one: the restart
// phase spins up several servers in one process, and sharing the
// process registry would merge their ledgers.
//
// Every server runs with the full judgment layer armed — a
// fast-cadence TSDB sampling its registry, the default SLOs over it,
// and the runtime watchdog — so the byte-invariance assertion also
// proves that history sampling, burn-rate evaluation, and anomaly
// checks never change response bytes. The TSDB attaches to the active
// flight recorder while the server runs: any postmortem the sweep
// triggers embeds the metrics window.
func startChaosServer(cfg serve.Config) *chaosServer {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	db := tsdb.New(tsdb.Config{Registry: cfg.Registry, Interval: 250 * time.Millisecond})
	db.Start()
	flightrec.Active().AttachTSDB(db)
	cfg.TSDB = db
	cfg.SLOs = serve.DefaultSLOs()
	cfg.SLOInterval = 250 * time.Millisecond
	cfg.WatchdogInterval = 250 * time.Millisecond
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	return &chaosServer{
		srv:  srv,
		db:   db,
		base: "http://" + ln.Addr().String(),
		stop: func() {
			cancel()
			<-done
			flightrec.Active().AttachTSDB(nil)
			db.Stop()
		},
	}
}

// sweepOverHTTP issues one /v1/run request per seed from 8 concurrent
// client goroutines, collecting the bodies in seed order. When retry429
// is set, a shed response is retried after a short backoff — the
// client-side half of the queue-full recovery loop.
func sweepOverHTTP(base string, start int64, seeds int, retry429 bool) ([][]byte, error) {
	const clients = 8
	bodies := make([][]byte, seeds)
	errs := make([]error, clients)
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < seeds; i++ {
			next <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Minute}
			for i := range next {
				body, err := runRequest(client, base, start+int64(i), retry429)
				if err != nil {
					if errs[c] == nil {
						errs[c] = fmt.Errorf("seed %d: %w", start+int64(i), err)
					}
					continue
				}
				bodies[i] = body
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// runRequest POSTs one /v1/run, retrying shed responses when asked.
func runRequest(client *http.Client, base string, seed int64, retry429 bool) ([]byte, error) {
	payload := fmt.Sprintf(`{"seed": %d}`, seed)
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader([]byte(payload)))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return body, nil
		}
		if retry429 && resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			// The advertised Retry-After is sized for real load; the
			// chaos sweep's sheds are injected, so a token backoff is
			// enough to land on a fresh admission decision.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

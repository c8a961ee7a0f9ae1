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
	"sync/atomic"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/serve"
)

// serveChaosOpts holds cmdChaos's flag values (see their help text);
// seeds, start, retries and faultSeed drive the engine sweep too.
type serveChaosOpts struct {
	seeds, workers, retries int
	start, faultSeed        int64
	runtimeRules            []fault.Rule // absorbed by the engine's retries
	probs                   serve.FaultProbs
	restart                 bool   // pass 2 on a restarted daemon, served from disk
	cacheDir                string // shared across the restart; empty = a temp dir
	flightrec               bool   // flight recorder + profiler in every daemon
	flightrecDir            string // where postmortem bundles land (CI uploads them)
	asJSON                  bool
}

// runServeChaos asserts the service-layer chaos contract: the same
// seed sweep, issued as /v1/run requests against a clean daemon and
// against one with the full fault mix armed (service sites + runtime
// sites), produces byte-identical response bodies — and a second pass
// over the chaotic daemon (cache hits, corruption heals) stays
// identical too. It prints and returns the report.
func runServeChaos(o serveChaosOpts) serveChaosJSON {
	plan := serve.ServiceFaultPlan(o.faultSeed, o.probs)
	plan.Rules = append(plan.Rules, o.runtimeRules...)
	inj, err := fault.New(plan)
	if err != nil {
		fail(err)
	}

	clean := startDaemon(o, nil, "")
	baseline, err := sweepOverHTTP(clean.base, o.start, o.seeds, false)
	clean.stop()
	if err != nil {
		fail(fmt.Errorf("baseline serve sweep: %w", err))
	}

	// With -restart each pass runs on its own daemon over one cache
	// directory: stopping pass 1's daemon is the "kill" (the drain
	// flushes write-behind, as SIGTERM does to pbld), and pass 2's cold
	// memory cache is served from verified disk reads. Without -restart
	// both passes hit one memory-only daemon.
	dir := ""
	if o.restart {
		if dir = o.cacheDir; dir == "" {
			if dir, err = os.MkdirTemp("", "pblchaos-store-"); err != nil {
				fail(err)
			}
			defer os.RemoveAll(dir)
		}
	}
	var (
		passes  [2][][]byte
		ledgers []serve.Stats // one per daemon, taken after its drain
		last    *chaosDaemon  // still open when the verdict is taken
	)
	for pass := 0; pass < 2; pass++ {
		if last == nil || o.restart {
			if last != nil {
				last.stop()
				ledgers = append(ledgers, last.Stats())
			}
			last = startDaemon(o, inj, dir)
		}
		if passes[pass], err = sweepOverHTTP(last.base, o.start, o.seeds, true); err != nil {
			last.stop()
			fail(fmt.Errorf("chaos serve sweep (pass %d): %w", pass+1, err))
		}
	}

	report := serveChaosJSON{
		Seeds:           o.seeds,
		Start:           o.start,
		Retries:         o.retries,
		FaultSeed:       o.faultSeed,
		Restart:         o.restart,
		Plan:            o.probs,
		RestartDiskHits: last.Stats().Store.DiskHits,
	}
	report.judge(baseline, passes)
	if !report.OK {
		// The black box earns its keep: the last daemon is still open,
		// so the bundle embeds its TSDB window and profiles — exactly
		// what the service saw at drift time.
		log := obs.Log().With("pblstudy chaos")
		if path := last.Postmortem("chaos-serve-drift"); path != "" {
			log.Error(context.Background(), "sweep drifted; flight recorder postmortem written", "path", path)
		}
		// And the continuous-profiling ring lands next to the bundles:
		// every snapshot from the last daemon, ready for `go tool pprof`.
		if o.flightrecDir != "" {
			if n, err := prof.Active().DumpRing(o.flightrecDir); err == nil && n > 0 {
				log.Error(context.Background(), "continuous-profiling ring dumped", "dir", o.flightrecDir, "snapshots", n)
			}
		}
	}
	// The ledgers are read after the drain: write-behind spills, and
	// the store.write faults they draw, land only then.
	last.stop()
	ledgers = append(ledgers, last.Stats())
	report.Faults = inj.Stats()
	for _, st := range ledgers {
		report.Shed += st.Shed
		report.CacheHits += st.Cache.Hits
		report.CacheMisses += st.Cache.Misses
		report.CacheCoalesced += st.Cache.Coalesced
		report.CorruptionHealed += st.Cache.CorruptRecovered
		report.StorePuts += st.Store.Puts
		report.StoreHealed += st.Store.CorruptionsHealed
		report.StoreReadErrors += st.Store.ReadErrors
		report.StoreWriteErrors += st.Store.WriteErrors
	}
	if o.asJSON {
		emitJSON(report)
	} else {
		renderServeChaos(report)
	}
	return report
}

// judge fills the verdict: the seeds whose body differs from the
// baseline in either pass, and OK only when none did and, with
// -restart, the restarted pass was served from disk.
func (r *serveChaosJSON) judge(baseline [][]byte, passes [2][][]byte) {
	for i := range baseline {
		if !bytes.Equal(baseline[i], passes[0][i]) || !bytes.Equal(baseline[i], passes[1][i]) {
			r.DriftedSeeds = append(r.DriftedSeeds, r.Start+int64(i))
		}
	}
	r.Identical = len(r.DriftedSeeds) == 0
	// Byte-identity alone is not the whole restart contract: the second
	// pass must actually have been served from the reopened disk tier,
	// or the phase proved nothing about persistence.
	r.OK = r.Identical && (!r.Restart || r.RestartDiskHits > 0)
}

// serveChaosJSON is the machine-readable service-chaos report.
type serveChaosJSON struct {
	Seeds            int                 `json:"seeds"`
	Start            int64               `json:"start"`
	Retries          int                 `json:"retries"`
	FaultSeed        int64               `json:"fault_seed"`
	Restart          bool                `json:"restart"`
	Plan             serve.FaultProbs    `json:"service_plan"`
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
		r.Plan.QueueFull, r.Plan.BackendSlow, r.Plan.CacheCorrupt,
		r.Plan.StoreCorrupt, r.Plan.StoreRead, r.Plan.StoreWrite)
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

// chaosDaemon is one ephemeral in-process pbld on a loopback port.
type chaosDaemon struct {
	*serve.Daemon
	base string
	stop func() // drains and closes the daemon
}

// startDaemon opens the daemon pbld runs with the sweep's flag values:
// a private registry, a queue as deep as the sweep, the injector, the
// cache dir, a 250ms clock and, with -flightrec, a 2s/500ms profiler —
// so byte-invariance also proves none of them changes response bytes.
func startDaemon(o serveChaosOpts, inj *fault.Injector, cacheDir string) *chaosDaemon {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	d, err := serve.Open(serve.Options{
		Config: serve.Config{
			Workers:  o.workers,
			Queue:    o.seeds,
			Retries:  o.retries,
			Injector: inj,
			Registry: obs.NewRegistry(),
		},
		CacheDir:     cacheDir,
		FlightRec:    o.flightrec,
		FlightRecDir: o.flightrecDir,
		Prof:         o.flightrec,
		ProfInterval: 2 * time.Second,
		ProfCPU:      500 * time.Millisecond,
		TSDB:         true,
		TSDBInterval: 250 * time.Millisecond,
		SLO:          true,
	})
	if err != nil {
		ln.Close()
		fail(fmt.Errorf("chaos serve: %w", err))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(ctx, ln)
	}()
	return &chaosDaemon{Daemon: d, base: "http://" + ln.Addr().String(), stop: func() {
		// A spare keep-alive connection the client dialed but never used
		// would hold the drain for net/http's 5s grace on new conns.
		http.DefaultClient.CloseIdleConnections()
		cancel()
		<-done
	}}
}

// sweepOverHTTP issues one /v1/run request per seed from 8 concurrent
// client goroutines, collecting the bodies in seed order. When retry429
// is set, a shed response is retried after a short backoff — the
// client-side half of the queue-full recovery loop.
func sweepOverHTTP(base string, start int64, seeds int, retry429 bool) ([][]byte, error) {
	bodies := make([][]byte, seeds)
	errs := make([]error, seeds)
	client := &http.Client{Timeout: 2 * time.Minute}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(seeds); i = next.Add(1) - 1 {
				bodies[i], errs[i] = runRequest(client, base, start+i, retry429)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", start+int64(i), err)
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

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/sched"
	"pblparallel/internal/serve"
)

// cmdChaos runs the same seed sweep twice — once clean, once under a
// deterministic fault-injection plan with the engine's retry layer
// armed — and asserts that every run's machine-readable summary is
// byte-identical. That is the repo's resilience contract: recoverable
// faults (message drops under reliable delivery, duplicates, delays,
// thread stalls, core slowdowns) are absorbed inside the runtime that
// injected them, and transient failures (injected panics, run
// failures) are retried to success, so chaos never changes what the
// study computes.
func cmdChaos(args []string) {
	fs := flag.NewFlagSet("pblstudy chaos", flag.ExitOnError)
	var o serveChaosOpts // the flags both sweeps share, plus the -serve ones
	fs.IntVar(&o.seeds, "seeds", 200, "number of study seeds to sweep")
	fs.Int64Var(&o.start, "start", 20180800, "first seed of the sweep")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = all CPUs)")
	workerset := fs.String("workerset", "", "comma-separated worker counts (e.g. 1,2,8): run the chaos pass once per count, each on a dedicated work-stealing runtime, all against one baseline; empty = a single pass at -workers")
	drop := fs.Float64("drop", 0.2, "probability an MPI message is dropped on the wire (recovered by reliable delivery)")
	dup := fs.Float64("dup", 0.05, "probability an MPI message is duplicated (deduplicated by sequence numbers)")
	delay := fs.Float64("delay", 0.05, "probability an MPI message is delayed before delivery")
	stall := fs.Float64("stall", 0.05, "probability an omp thread stalls at a barrier or chunk claim")
	panicP := fs.Float64("panic", 0.005, "probability an omp thread panics at a barrier (transient; retried)")
	slow := fs.Float64("slow", 0.25, "probability a simulated Pi core runs slowed (virtual time only)")
	runfail := fs.Float64("runfail", 0.005, "probability an engine run fails transiently before executing")
	fs.IntVar(&o.retries, "retries", 3, "engine retry budget for transient failures")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed of the fault-decision stream")
	serveMode := fs.Bool("serve", false, "sweep through the HTTP service instead of the engine: responses must stay byte-identical under the service-layer fault mix")
	fs.Float64Var(&o.probs.QueueFull, "qfull", 0.05, "-serve: probability a request is shed at admission as if the queue were full (client retries)")
	fs.Float64Var(&o.probs.BackendSlow, "slowreq", 0.1, "-serve: probability a computation is delayed (latency only)")
	fs.Float64Var(&o.probs.CacheCorrupt, "corrupt", 0.2, "-serve: probability a cache read sees corrupted bytes (healed by recompute)")
	fs.Float64Var(&o.probs.StoreCorrupt, "store-corrupt", 0.1, "-serve -restart: probability a persistent-tier read sees corrupted bytes (healed by delete + recompute)")
	fs.Float64Var(&o.probs.StoreRead, "store-read", 0.05, "-serve -restart: probability a persistent-tier read fails (degrades to a miss)")
	fs.Float64Var(&o.probs.StoreWrite, "store-write", 0.05, "-serve -restart: probability a persistent-tier write fails (entry not persisted)")
	fs.BoolVar(&o.restart, "restart", true, "-serve: run the second pass against a freshly restarted daemon whose memory cache is cold, so it must be served from the persistent tier")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "-serve -restart: persistent tier directory shared across the restart (empty = a fresh temp dir)")
	fs.BoolVar(&o.flightrec, "flightrec", true, "-serve: run the flight recorder and the continuous profiler in every daemon, asserting recording never changes response bytes")
	fs.StringVar(&o.flightrecDir, "flightrec-dir", "", "-serve: write triggered postmortem bundles to this directory (CI uploads them when the sweep fails)")
	fs.BoolVar(&o.asJSON, "json", false, "emit the chaos report as JSON instead of text")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)
	startObs(obsCLI)

	workerCounts, err := parseWorkerSet(*workerset)
	if err != nil {
		fail(err)
	}

	// The runtime fault mix: it fires inside studies and is absorbed by
	// the engine's retry layer (under the service with -serve).
	o.runtimeRules = []fault.Rule{
		{Site: fault.SiteMPISend, Kind: fault.MsgDrop, Prob: *drop},
		{Site: fault.SiteMPISend, Kind: fault.MsgDup, Prob: *dup},
		{Site: fault.SiteMPISend, Kind: fault.MsgDelay, Prob: *delay, Max: 200e-6},
		{Site: fault.SiteOMPBarrier, Kind: fault.ThreadPanic, Prob: *panicP},
		{Site: fault.SiteOMPBarrier, Kind: fault.ThreadStall, Prob: *stall, Max: 200e-6},
		{Site: fault.SiteOMPFor, Kind: fault.ThreadStall, Prob: *stall, Max: 200e-6},
		{Site: fault.SitePisimCore, Kind: fault.CoreSlow, Prob: *slow},
		{Site: fault.SiteEngineRun, Kind: fault.RunFail, Prob: *runfail},
	}
	if *serveMode {
		identical := true
		for _, w := range workerCountsOr(workerCounts, *workers) {
			o.workers = w
			identical = runServeChaos(o).OK && identical
		}
		closeObs()
		if !identical {
			os.Exit(1)
		}
		return
	}

	plan := fault.Plan{Seed: o.faultSeed, Rules: o.runtimeRules}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := core.PaperStudy()
	stream := engine.SequentialSeeds(o.start)

	// Clean baseline: no injector in the context, no retries needed.
	clean := engine.New(engine.WithWorkers(*workers))
	baseRes, err := clean.Sweep(ctx, cfg, stream, o.seeds)
	if err != nil {
		fail(fmt.Errorf("baseline sweep: %w", err))
	}
	if err := baseRes.FirstErr(); err != nil {
		fail(fmt.Errorf("baseline sweep: %w", err))
	}
	baseline := make([][]byte, o.seeds)
	for _, r := range baseRes.Runs {
		b, err := json.Marshal(serve.Summarize(r.Seed, cfg.Calibrate, r.Outcome))
		if err != nil {
			fail(err)
		}
		baseline[r.Index] = b
	}

	// Chaos passes: same seeds, faults armed, transient failures
	// retried — once per worker count, each checked against the one
	// baseline. With -workerset every pass runs on its own dedicated
	// work-stealing runtime, so divergent steal interleavings are part
	// of what the byte-invariance assertion covers.
	allIdentical := true
	for pi, w := range workerCountsOr(workerCounts, *workers) {
		// A fresh injector per pass: fault decisions are a pure
		// function of (plan seed, site, key), so every pass sees the
		// same injections, and the per-pass ledger stays readable.
		inj, err := fault.New(plan)
		if err != nil {
			fail(err)
		}
		engOpts := []engine.Option{
			engine.WithWorkers(w),
			engine.WithMetrics(obs.Metrics()),
			engine.WithRetry(o.retries),
		}
		var rt *sched.Runtime
		if len(workerCounts) > 0 {
			rt = sched.New(sched.WithWorkers(w))
			engOpts = append(engOpts, engine.WithRuntime(rt))
		}
		chaotic := engine.New(engOpts...)
		chaosRes, err := chaotic.Sweep(fault.NewContext(ctx, inj), cfg, stream, o.seeds)
		if rt != nil {
			rt.Close()
		}
		if err != nil {
			fail(fmt.Errorf("chaos sweep (workers=%d): %w", w, err))
		}

		var drifted []int64
		failed := 0
		attempts := 0
		for _, r := range chaosRes.Runs {
			attempts += r.Attempts
			if r.Err != nil {
				failed++
				drifted = append(drifted, r.Seed)
				continue
			}
			b, err := json.Marshal(serve.Summarize(r.Seed, cfg.Calibrate, r.Outcome))
			if err != nil {
				fail(err)
			}
			if string(b) != string(baseline[r.Index]) {
				drifted = append(drifted, r.Seed)
			}
		}
		stats := inj.Stats()

		report := chaosJSON{
			Seeds:     o.seeds,
			Start:     o.start,
			Workers:   chaosRes.Workers,
			Retries:   o.retries,
			FaultSeed: o.faultSeed,
			Plan: map[string]float64{
				"drop": *drop, "dup": *dup, "delay": *delay, "stall": *stall,
				"panic": *panicP, "slow": *slow, "runfail": *runfail,
			},
			Faults:        stats,
			RunsRetried:   attempts - len(chaosRes.Runs),
			AttemptsTotal: attempts,
			FailedRuns:    failed,
			DriftedSeeds:  drifted,
			Identical:     len(drifted) == 0,
		}
		if o.asJSON {
			emitJSON(report)
		} else {
			if pi > 0 {
				fmt.Println()
			}
			renderChaos(report)
		}
		allIdentical = allIdentical && report.Identical
	}
	closeObs()
	if !allIdentical {
		os.Exit(1)
	}
}

// parseWorkerSet parses the -workerset flag: a comma-separated list of
// positive worker counts, or nil when empty.
func parseWorkerSet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("pblstudy chaos: bad -workerset entry %q (want positive integers)", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// workerCountsOr returns the parsed worker set, or the single fallback
// count when none was given.
func workerCountsOr(counts []int, fallback int) []int {
	if len(counts) == 0 {
		return []int{fallback}
	}
	return counts
}

// chaosJSON is the machine-readable chaos report.
type chaosJSON struct {
	Seeds         int                 `json:"seeds"`
	Start         int64               `json:"start"`
	Workers       int                 `json:"workers"`
	Retries       int                 `json:"retries"`
	FaultSeed     int64               `json:"fault_seed"`
	Plan          map[string]float64  `json:"plan"`
	Faults        fault.StatsSnapshot `json:"faults"`
	RunsRetried   int                 `json:"runs_retried"`
	AttemptsTotal int                 `json:"attempts_total"`
	FailedRuns    int                 `json:"failed_runs"`
	DriftedSeeds  []int64             `json:"drifted_seeds,omitempty"`
	Identical     bool                `json:"identical"`
}

func renderChaos(r chaosJSON) {
	fmt.Printf("chaos sweep: %d seeds from %d, workers=%d, retry budget=%d, fault seed=%d\n",
		r.Seeds, r.Start, r.Workers, r.Retries, r.FaultSeed)
	fmt.Printf("plan: drop=%.3g dup=%.3g delay=%.3g stall=%.3g panic=%.3g slow=%.3g runfail=%.3g\n",
		r.Plan["drop"], r.Plan["dup"], r.Plan["delay"], r.Plan["stall"],
		r.Plan["panic"], r.Plan["slow"], r.Plan["runfail"])
	fmt.Printf("faults: injected=%d", r.Faults.Injected)
	if len(r.Faults.ByKind) > 0 {
		b, _ := json.Marshal(r.Faults.ByKind)
		fmt.Printf(" %s", b)
	}
	fmt.Printf(" recovered=%d delivery/run retries=%d\n", r.Faults.Recovered, r.Faults.Retries)
	fmt.Printf("runs: %d attempts for %d seeds, %d engine retries, %d failed after retry\n",
		r.AttemptsTotal, r.Seeds, r.RunsRetried, r.FailedRuns)
	if r.Identical {
		fmt.Println("result: OK — study statistics byte-identical under injected faults")
	} else {
		fmt.Printf("result: DRIFT — %d seed(s) diverged or failed: %v\n", len(r.DriftedSeeds), r.DriftedSeeds)
	}
}

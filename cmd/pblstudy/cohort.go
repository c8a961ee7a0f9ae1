package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"pblparallel/internal/cohort"
	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/sched"
)

// cmdCohort runs the mega-cohort scenario engine: a synthetic
// multi-institution, multi-semester population scaled by -students
// into the millions, swept over the formation-policy and
// assessment-variant axes and reduced through the streaming sketch
// stack — O(sketches) memory at any scale. With -workerset the sweep
// runs once per worker count, each pass on a dedicated work-stealing
// runtime, and asserts every pass serializes to byte-identical JSON
// (exit 1 on drift); -faults arms the batch-level fault site during
// those passes, which must not change a byte either.
func cmdCohort(args []string) {
	fs := flag.NewFlagSet("pblstudy cohort", flag.ExitOnError)
	students := fs.Int("students", 100_000, "total synthetic students across all scenario cells")
	seed := fs.Int64("seed", 42, "root seed of every per-student draw")
	institutions := fs.Int("institutions", 3, "institution replication axis")
	semesters := fs.Int("semesters", 2, "semester replication axis")
	policies := fs.String("policies", "", "comma-separated formation policies (empty = all: balanced,random,skill-based,self-selected)")
	assessments := fs.String("assessments", "", "comma-separated assessment variants (empty = all: survey,rubric,multi-modal)")
	batch := fs.Int("batch", 0, "reduction grain in students per chunk (0 auto-scales; part of the result's content identity)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = all CPUs)")
	workerset := fs.String("workerset", "", "comma-separated worker counts (e.g. 1,2,8): run once per count on dedicated runtimes and assert byte-identical output")
	faultP := fs.Float64("faults", 0, "per-batch probability of an injected fault (transient recompute + stall mix); 0 disarms")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the fault-decision stream")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of the report")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)
	startObs(obsCLI)

	cfg := mega.Config{
		Students:     *students,
		Institutions: *institutions,
		Semesters:    *semesters,
		Seed:         *seed,
		Batch:        *batch,
	}
	var err error
	if cfg.Policies, err = parsePolicies(*policies); err != nil {
		fail(err)
	}
	if cfg.Assessments, err = parseAssessments(*assessments); err != nil {
		fail(err)
	}
	workerCounts, err := parseWorkerSet(*workerset)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		ref       []byte
		res       *mega.Result
		inj       *fault.Injector
		identical = true
		counts    = workerCountsOr(workerCounts, *workers)
	)
	for pi, w := range counts {
		runCtx := ctx
		if *faultP > 0 {
			// A fresh injector per pass: decisions are a pure function of
			// (plan seed, site, key), so every pass sees the same faults.
			inj, err = fault.New(fault.Plan{Seed: *faultSeed, Rules: []fault.Rule{
				{Site: fault.SiteCohortBatch, Kind: fault.RunFail, Prob: *faultP},
				{Site: fault.SiteCohortBatch, Kind: fault.ThreadStall, Prob: *faultP, Max: 200e-6},
			}})
			if err != nil {
				fail(err)
			}
			runCtx = fault.NewContext(ctx, inj)
		}
		engOpts := []engine.Option{engine.WithWorkers(w)}
		var rt *sched.Runtime
		if len(workerCounts) > 0 {
			// Dedicated runtime per pass: divergent steal interleavings
			// are part of what the byte-invariance assertion covers.
			rt = sched.New(sched.WithWorkers(w))
			engOpts = append(engOpts, engine.WithRuntime(rt))
		}
		res, err = mega.Run(runCtx, engine.New(engOpts...), cfg)
		if rt != nil {
			rt.Close()
		}
		if err != nil {
			fail(fmt.Errorf("cohort sweep (workers=%d): %w", w, err))
		}
		b, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		if pi == 0 {
			ref = b
		} else if !bytes.Equal(b, ref) {
			identical = false
			fmt.Fprintf(os.Stderr, "cohort: DRIFT — workers=%d serialized differently than workers=%d\n", w, counts[0])
		}
	}

	if *asJSON {
		emitJSON(res)
	} else {
		renderCohort(res, counts, inj, identical)
	}
	closeObs()
	if !identical {
		os.Exit(1)
	}
}

// parsePolicies resolves the -policies flag (empty = every axis value).
func parsePolicies(s string) ([]cohort.FormationPolicy, error) {
	if s == "" {
		return cohort.AllFormationPolicies(), nil
	}
	var out []cohort.FormationPolicy
	for _, tok := range strings.Split(s, ",") {
		p, err := cohort.ParseFormationPolicy(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseAssessments resolves the -assessments flag (empty = every axis value).
func parseAssessments(s string) ([]cohort.AssessmentVariant, error) {
	if s == "" {
		return cohort.AllAssessmentVariants(), nil
	}
	var out []cohort.AssessmentVariant
	for _, tok := range strings.Split(s, ",") {
		v, err := cohort.ParseAssessmentVariant(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// renderCohort writes the text report: the run shape, the overall
// aggregate, and per-policy rows folded from the cell sketches with
// the same Merge the reduction itself uses.
func renderCohort(res *mega.Result, counts []int, inj *fault.Injector, identical bool) {
	fmt.Printf("mega-cohort: %d students over %d cells, %d batches of %d, seed %d [%.2fs @ %d workers]\n",
		res.Students, len(res.Cells), res.Batches, res.Batch, res.Seed,
		res.Elapsed.Seconds(), res.Workers)
	line := func(name string, s *mega.Summary) {
		fmt.Printf("  %-14s n=%-9d gain=%.3f  d=%.2f (%s)  r=%.3f\n",
			name, s.Students, s.GainMean, s.EffectD, s.EffectBand, s.PearsonR)
	}
	line("overall", &res.Overall)
	byPolicy := map[string]*mega.Summary{}
	var order []string
	for i := range res.Cells {
		c := &res.Cells[i]
		s, ok := byPolicy[c.Policy]
		if !ok {
			s = &mega.Summary{}
			byPolicy[c.Policy] = s
			order = append(order, c.Policy)
		}
		s.Merge(&c.Summary)
	}
	for _, p := range order {
		byPolicy[p].Finalize()
		line(p, byPolicy[p])
	}
	if inj != nil {
		st := inj.Stats()
		fmt.Printf("faults: injected=%d recovered=%d retries=%d — absorbed, output unchanged\n",
			st.Injected, st.Recovered, st.Retries)
	}
	if len(counts) > 1 {
		if identical {
			fmt.Printf("result: OK — byte-identical across workers %v\n", counts)
		} else {
			fmt.Printf("result: DRIFT across workers %v\n", counts)
		}
	}
}

// Command pblstudy runs the full reproduction of the paper's study.
//
// Usage:
//
//	pblstudy [run] [-seed N] [-students N] [-uncalibrated] [-json]
//	pblstudy sensitivity [-seeds N] [-start S] [-workers N] [-json]
//	pblstudy cohort [-students N] [-seed S] [-workerset 1,2,8] [-faults P] [-json]
//	pblstudy serve [-addr HOST:PORT] [-workers N] [-queue N]
//	pblstudy instrument
//	pblstudy spring2019 [-n N] [-seed S]
//
// With no arguments it behaves like `pblstudy run` with defaults: the
// Fig.-1 timeline, the survey instrument excerpt, Tables 1–6, and the
// paper-vs-measured comparison. The sensitivity sweep fans out over the
// parallel engine; its numbers are identical for any -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/obs"
	"pblparallel/internal/pbl"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/serve"
	"pblparallel/internal/survey"
	"pblparallel/internal/whatif"
)

// session is the subcommand's active observability session; fail
// flushes it before exiting.
var session *obs.Session

// startObs activates the observability flags, exiting on error. The
// caller must run closeObs before returning; fail paths close it too.
func startObs(c *obs.CLI) {
	sess, err := c.Start()
	if err != nil {
		fail(err)
	}
	session = sess
}

// closeObs flushes trace/metrics files; its diagnostics go to stderr,
// so stdout stays machine-parseable under -json.
func closeObs() {
	sess := session
	session = nil
	if err := sess.Close(); err != nil {
		fail(err)
	}
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		cmdRun(nil)
		return
	}
	switch args[0] {
	case "run":
		cmdRun(args[1:])
	case "sensitivity":
		cmdSensitivity(args[1:])
	case "chaos":
		cmdChaos(args[1:])
	case "cohort":
		cmdCohort(args[1:])
	case "serve":
		if err := serve.Command("pblstudy serve", args[1:]); err != nil {
			fail(err)
		}
	case "instrument":
		cmdInstrument(args[1:])
	case "spring2019":
		cmdSpring2019(args[1:])
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		obs.Log().With("pblstudy").Error(context.Background(),
			"unknown subcommand (the old -sensitivity/-instrument/-spring2019 flags are now subcommands)",
			"subcommand", args[0])
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: pblstudy <subcommand> [flags]

subcommands:
  run          full study: timeline, instrument excerpt, Tables 1-6,
               paper-vs-measured comparison (default when omitted)
  sensitivity  re-run the study across many seeds on the parallel
               engine and report statistic distributions
  chaos        re-run a seed sweep under deterministic fault injection
               and assert the statistics are byte-identical (-serve runs
               the sweep through the HTTP service instead)
  cohort       mega-cohort scenario engine: millions of synthetic
               students over formation-policy x assessment-variant
               cells, reduced through mergeable one-pass sketches
               (-workerset asserts byte-identical output per count)
  serve        run the study-as-a-service HTTP daemon (same server as
               cmd/pbld: /v1/run, /v1/sweep, /v1/cohort, /v1/spring2019,
               /metrics)
  instrument   print the full survey instrument (Fig. 2 for every element)
  spring2019   the planned Spring 2019 revision and its projected effect

run 'pblstudy <subcommand> -h' for the subcommand's flags
`)
}

// cmdRun executes one full study.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("pblstudy run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the study seed (0 keeps the paper's)")
	students := fs.Int("students", 0, "override the cohort size (0 keeps the paper's 124; must be even and >= 10)")
	uncal := fs.Bool("uncalibrated", false, "use the uncalibrated response model (ablation)")
	asJSON := fs.Bool("json", false, "emit a machine-readable summary instead of the report")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)
	startObs(obsCLI)

	// The stage timings feed engine_stage_duration_seconds in the
	// -metrics-out and -pprof expositions.
	opts := []core.Option{core.WithCalibration(!*uncal), core.WithStageObserver(engine.StageObserver(obs.Metrics()))}
	if *seed != 0 {
		opts = append(opts, core.WithSeed(*seed))
	}
	if *students != 0 {
		opts = append(opts, core.WithCohortSize(*students))
	}
	study := core.NewStudy(opts...)
	outcome, err := study.Run(context.Background())
	if err != nil {
		fail(err)
	}
	if *asJSON {
		emitJSON(runSummary(study, outcome))
	} else if err := outcome.Render(os.Stdout); err != nil {
		fail(err)
	}
	closeObs()
}

// runSummary builds the machine-readable study summary (the shape
// shared with /v1/run and pinned by testdata/golden).
func runSummary(study *core.Study, o *core.Outcome) serve.RunSummary {
	cfg := study.Config()
	return serve.Summarize(cfg.Seed, cfg.Calibrate, o)
}

// cmdSensitivity sweeps the study across seeds on the engine.
func cmdSensitivity(args []string) {
	fs := flag.NewFlagSet("pblstudy sensitivity", flag.ExitOnError)
	seeds := fs.Int("seeds", 40, "number of seeds to sweep")
	start := fs.Int64("start", 20180800, "first seed of the sweep")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = all CPUs)")
	asJSON := fs.Bool("json", false, "emit the distributions as JSON instead of the report")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)
	startObs(obsCLI)

	opts := sensitivity.Options{Workers: *workers, Metrics: obs.Metrics()}
	// Ctrl-C cancels the sweep through the engine: in-flight runs stop
	// at their next stage boundary and the error reports the partial
	// completion count.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := sensitivity.RunSweep(ctx, *start, *seeds, opts)
	if err != nil {
		fail(err)
	}
	if *asJSON {
		emitJSON(r)
	} else {
		fmt.Print(r.Render())
	}
	closeObs()
}

// cmdInstrument prints the full Fig.-2 form.
func cmdInstrument(args []string) {
	fs := flag.NewFlagSet("pblstudy instrument", flag.ExitOnError)
	fs.Parse(args)
	if err := survey.RenderInstrument(os.Stdout, survey.NewBeyerlein()); err != nil {
		fail(err)
	}
}

// cmdSpring2019 prints the revised module, what changed, and the
// projected effect of the teamwork reinforcement on the weakest
// correlation of Table 4.
func cmdSpring2019(args []string) {
	fs := flag.NewFlagSet("pblstudy spring2019", flag.ExitOnError)
	n := fs.Int("n", 3000, "projection cohort size (large n stabilizes the projection)")
	seed := fs.Int64("seed", 42, "projection seed")
	obsCLI := obs.BindFlags(fs)
	fs.Parse(args)
	startObs(obsCLI)

	fall := pbl.NewPaperModule()
	revised := pbl.NewSpring2019Module()
	if err := revised.RenderTimeline(os.Stdout); err != nil {
		fail(err)
	}
	diff, err := pbl.Diff(fall, revised)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nchanges vs Fall 2018: %d new assignment(s) %v, +%d questions, +%d materials\n\n",
		len(diff.AddedAssignments), diff.AddedAssignments,
		diff.AddedQuestionCount, diff.AddedMaterialCount)
	proj, err := whatif.Project(context.Background(), engine.New(), whatif.TeamworkReinforcement(), *n, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Print(proj.Render())
	closeObs()
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

// fail logs the fatal error through the structured logger (one
// machine-splittable key=value line, trace-stamped when a request
// context carried one) and exits.
func fail(err error) {
	if sess := session; sess != nil {
		session = nil
		sess.Close()
	}
	obs.Log().With("pblstudy").Error(context.Background(), "fatal", "err", err)
	os.Exit(1)
}

package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/analysis"
	"pblparallel/internal/cohort"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/omp"
	"pblparallel/internal/pbl"
	"pblparallel/internal/respond"
	"pblparallel/internal/survey"
	"pblparallel/internal/teams"
	"pblparallel/internal/teamwork"
)

// Stage names, in execution order, reported to a StageObserver. Exported
// so observers (the engine's metrics) can render stages in pipeline
// order rather than alphabetically.
var Stages = []string{
	StageCohort, StageTeams, StageModule, StageActivity, StagePracticum,
	StageCalibration, StageSurveys, StageAnalysis,
}

// Stage identifiers of the study pipeline.
const (
	StageCohort      = "cohort"
	StageTeams       = "teams"
	StageModule      = "module"
	StageActivity    = "activity"
	StagePracticum   = "practicum"
	StageCalibration = "calibration"
	StageSurveys     = "surveys"
	StageAnalysis    = "analysis"
)

// ConfigError reports a study configuration the pipeline cannot run,
// such as a cohort whose sections cannot form teams of the configured
// sizes: the caller's mistake, not a failure of the run.
type ConfigError struct{ Err error }

func (e *ConfigError) Error() string { return e.Err.Error() }
func (e *ConfigError) Unwrap() error { return e.Err }

// StageObserver receives the wall-time of each completed pipeline stage.
// Implementations must be safe for concurrent use when the same observer
// is shared across parallel studies (the engine's Metrics is).
type StageObserver func(stage string, elapsed time.Duration)

// Study is a configured, runnable instance of the reproduction. Build
// one with NewStudy and functional options, then call Run. A Study is
// cheap to construct; the seed-independent state (the Beyerlein
// instrument, the calibrated response-model parameters) is built once
// per process or read from committed data.
type Study struct {
	cfg      StudyConfig
	observer StageObserver
	err      error // first option error, surfaced by Run
}

// Option configures a Study under construction.
type Option func(*Study)

// WithConfig replaces the whole configuration (the compatibility path
// for callers holding a StudyConfig).
func WithConfig(cfg StudyConfig) Option {
	return func(s *Study) { s.cfg = cfg }
}

// WithSeed overrides the seed driving every stochastic stage.
func WithSeed(seed int64) Option {
	return func(s *Study) { s.cfg.Seed = seed }
}

// ScaleCohort sizes c to n students with the gender composition the
// paper's cohort scales by: n/5 females overall, n/10 of them in
// section 1. The derivation floors at zero for small n, which would
// silently produce an all-male cohort — so sizes that would do that are
// rejected instead, leaving c unchanged.
func ScaleCohort(c *cohort.Config, n int) error {
	if n%2 != 0 || n < 10 {
		return fmt.Errorf("core: cohort size %d: must be even and >= 10 so the derived female counts (n/5 overall, n/10 in section 1) stay positive", n)
	}
	c.NStudents, c.NFemale, c.Section1Females = n, n/5, n/10
	return nil
}

// WithCohortSize overrides the cohort size through ScaleCohort.
func WithCohortSize(n int) Option {
	return func(s *Study) {
		if err := ScaleCohort(&s.cfg.Cohort, n); err != nil {
			s.fail(err)
		}
	}
}

// WithCalibration selects the calibrated response model (true, the
// paper path) or the uncalibrated starting model (false, the ablation).
func WithCalibration(on bool) Option {
	return func(s *Study) { s.cfg.Calibrate = on }
}

// WithStageObserver installs a per-stage wall-time observer.
func WithStageObserver(fn StageObserver) Option {
	return func(s *Study) { s.observer = fn }
}

// NewStudy builds a Study from the paper's configuration plus options.
// Option errors (an invalid cohort size, say) are deferred to Run so
// construction stays chainable.
func NewStudy(opts ...Option) *Study {
	s := &Study{cfg: PaperStudy()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Config returns the study's resolved configuration.
func (s *Study) Config() StudyConfig { return s.cfg }

// fail records the first option error.
func (s *Study) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// observe times one stage.
func (s *Study) observe(stage string, start time.Time) {
	if s.observer != nil {
		s.observer(stage, time.Since(start))
	}
}

// traceLane hands each traced study run its own trace timeline, so
// parallel runs under the engine don't interleave on one track. Only
// bumped when a tracer is installed.
var traceLane atomic.Uint32

// studiesStarted counts Run calls process-wide; always on (atomic add,
// no observable effect on study output).
var studiesStarted = obs.Metrics().Counter("core_studies_started_total",
	"Study pipeline executions started.")

// Run executes the full study. The context is checked between pipeline
// stages, so cancellation (or an engine-imposed per-run timeout) stops
// a run promptly without leaving shared state half-built. The result
// depends only on the configuration — never on scheduling — so parallel
// and sequential execution produce identical outcomes.
func (s *Study) Run(ctx context.Context) (*Outcome, error) {
	if s.err != nil {
		return nil, s.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := s.cfg
	studiesStarted.Inc()
	// Fault injection rides the context (the engine forks a fresh
	// injector per attempt); nil when chaos testing is off, and every
	// hook below is then a nil check.
	inj := fault.FromContext(ctx)

	// Tracing: one lane per run, one span per pipeline stage plus a
	// whole-run span. tr is nil when disabled; every span call below is
	// then an inert value operation with no allocation.
	tr := obs.Default()
	var lane uint32
	if tr != nil {
		lane = traceLane.Add(1)
	}
	runSpan, ctx := tr.StartSpan(ctx, obs.PIDCore, lane, "core", "study")
	runSpan = runSpan.Int("seed", cfg.Seed).Int("students", int64(cfg.Cohort.NStudents))
	defer runSpan.End()
	// Stage spans parent under the run span so /debug/trace shows the
	// pipeline as one subtree of the request.
	runTC := runSpan.TraceCtx()
	stageBegin := func(name string) (time.Time, obs.Span) {
		return time.Now(), tr.Span(obs.PIDCore, lane, "core", name).Trace(runTC)
	}
	stageEnd := func(name string, start time.Time, sp obs.Span) {
		sp.End()
		s.observe(name, start)
	}

	check := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled: %w", err)
		}
		return nil
	}

	if err := check(); err != nil {
		return nil, err
	}
	start, sp := stageBegin(StageCohort)
	coh, err := cohort.Generate(cfg.Cohort, cfg.Seed)
	if err != nil {
		return nil, &ConfigError{fmt.Errorf("core: cohort: %w", err)}
	}
	stageEnd(StageCohort, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StageTeams)
	formation, err := teams.FormBalanced(coh, cfg.Teams, cfg.Seed+1)
	if err != nil {
		return nil, &ConfigError{fmt.Errorf("core: teams: %w", err)}
	}
	balance, err := formation.Report()
	if err != nil {
		return nil, fmt.Errorf("core: balance: %w", err)
	}
	stageEnd(StageTeams, start, sp)

	start, sp = stageBegin(StageModule)
	module := pbl.NewPaperModule()
	if err := module.Validate(); err != nil {
		return nil, fmt.Errorf("core: module: %w", err)
	}
	stageEnd(StageModule, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StageActivity)
	// Teams simulate independently (each seeds its own RNG from the team
	// ID), so the stage work-shares over the omp runtime — the course's
	// own fork-join loop, with results slotted by index so scheduling
	// never influences the outcome.
	nTeams := len(formation.Teams)
	logs := make([]*teamwork.Log, nTeams)
	logErrs := make([]error, nTeams)
	nThreads := piCores
	if nTeams < nThreads {
		nThreads = nTeams
	}
	if nThreads < 1 {
		nThreads = 1
	}
	if err := omp.Parallel(func(tc *omp.ThreadContext) {
		// For's only error is a broken barrier, which implies a panic
		// that Parallel itself reports.
		_ = tc.For(0, nTeams, omp.Dynamic{Chunk: 1}, func(i int) {
			logs[i], logErrs[i] = teamwork.SimulateTeamActivity(formation.Teams[i], module.SemesterWeeks, cfg.Seed+2)
		})
	}, omp.WithNumThreads(nThreads), omp.WithFault(inj), omp.WithTrace(sp.TraceCtx())); err != nil {
		return nil, fmt.Errorf("core: activity: %w", err)
	}
	activity := make(map[int]*teamwork.Log, nTeams)
	for i, tm := range formation.Teams {
		if logErrs[i] != nil {
			return nil, fmt.Errorf("core: activity: %w", logErrs[i])
		}
		activity[tm.ID] = logs[i]
	}
	stageEnd(StageActivity, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StagePracticum)
	practicum, err := runPracticum(formation, activity, inj, sp.TraceCtx())
	if err != nil {
		return nil, fmt.Errorf("core: practicum: %w", err)
	}
	stageEnd(StagePracticum, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StageCalibration)
	ins := sharedInstrument()
	paramsFor := respond.UncalibratedParams
	if cfg.Calibrate {
		paramsFor = respond.PaperParams // committed data, not a calibration run
	}
	params, err := paramsFor(ins)
	if err != nil {
		return nil, fmt.Errorf("core: calibration: %w", err)
	}
	gen, err := respond.NewGenerator(ins, params)
	if err != nil {
		return nil, fmt.Errorf("core: generator: %w", err)
	}
	stageEnd(StageCalibration, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StageSurveys)
	mid, end, err := gen.Generate(len(coh.Students), cfg.Seed+3)
	if err != nil {
		return nil, fmt.Errorf("core: survey waves: %w", err)
	}
	stageEnd(StageSurveys, start, sp)

	if err := check(); err != nil {
		return nil, err
	}
	start, sp = stageBegin(StageAnalysis)
	ds := analysis.Dataset{Instrument: ins, Mid: mid, End: end, Section: make([]int, len(end.Sheets))}
	for i, sheet := range end.Sheets {
		st, err := coh.ByID(sheet.StudentID)
		if err != nil {
			return nil, fmt.Errorf("core: analysis: %w", err)
		}
		ds.Section[i] = st.Section
	}
	report, err := analysis.Run(ds)
	if err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	stageEnd(StageAnalysis, start, sp)

	return &Outcome{
		Cohort:         coh,
		Formation:      formation,
		Balance:        balance,
		Module:         module,
		Instrument:     ins,
		ActivityByTeam: activity,
		Practicum:      practicum,
		Dataset:        ds,
		Report:         report,
		Comparison:     analysis.Compare(report),
	}, nil
}

// The instrument does not depend on the study seed, so it is built once
// per process and treated as immutable by every consumer.
var (
	insOnce   sync.Once
	insShared *survey.Instrument
)

// sharedInstrument returns the process-wide Beyerlein instrument.
func sharedInstrument() *survey.Instrument {
	insOnce.Do(func() { insShared = survey.NewBeyerlein() })
	return insShared
}

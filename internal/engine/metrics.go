package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/obs"
	"pblparallel/internal/sched"
)

// Metrics is the engine's observability surface: started / completed /
// failed run counters, per-stage and whole-run wall-time histograms,
// and throughput over the observation window. All methods are safe for
// concurrent use and safe on a nil receiver (a disabled sink).
type Metrics struct {
	// The run counters are bumped from every worker in a sweep; padded
	// so four hot independent counters stop sharing one cache line
	// (see BenchmarkCounterInc in internal/sched).
	started   sched.PaddedInt64
	completed sched.PaddedInt64
	failed    sched.PaddedInt64
	retried   sched.PaddedInt64

	mu     sync.Mutex
	begin  time.Time // first run start
	end    time.Time // last run finish
	stages map[string]*obs.Hist
	run    *obs.Hist
}

// NewMetrics builds an empty sink.
func NewMetrics() *Metrics {
	return &Metrics{stages: make(map[string]*obs.Hist), run: obs.NewHist()}
}

// ObserveStage records one pipeline stage's wall time. It has the
// core.StageObserver signature so it can be installed directly on a
// Study.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = obs.NewHist()
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
}

func (m *Metrics) runStarted() {
	if m == nil {
		return
	}
	m.started.Add(1)
	m.mu.Lock()
	if m.begin.IsZero() {
		m.begin = time.Now()
	}
	m.mu.Unlock()
}

func (m *Metrics) runFinished(d time.Duration, failed bool) {
	if m == nil {
		return
	}
	if failed {
		m.failed.Add(1)
	} else {
		m.completed.Add(1)
	}
	m.run.Observe(d.Seconds())
	m.mu.Lock()
	m.end = time.Now()
	m.mu.Unlock()
}

func (m *Metrics) runCompleted(d time.Duration) { m.runFinished(d, false) }
func (m *Metrics) runFailed(d time.Duration)    { m.runFinished(d, true) }

// runRetried counts one retry of a transiently failed attempt. Retries
// are attempts beyond the first; a run retried twice and then
// succeeding contributes 2 here and 1 to completed.
func (m *Metrics) runRetried() {
	if m == nil {
		return
	}
	m.retried.Add(1)
}

// Snapshot is a point-in-time copy of the counters. Run and Stages
// are the live wall-time histograms (seconds), which read lock-free.
type Snapshot struct {
	Started, Completed, Failed, Retried int64
	// Window is the wall time from the first run start to the last run
	// finish; Throughput is completed runs per second over it.
	Window     time.Duration
	Throughput float64
	Run        *obs.Hist
	Stages     map[string]*obs.Hist
}

// Snapshot copies the current state.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Run: obs.NewHist(), Stages: map[string]*obs.Hist{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Started:   m.started.Load(),
		Completed: m.completed.Load(),
		Failed:    m.failed.Load(),
		Retried:   m.retried.Load(),
		Run:       m.run,
		Stages:    make(map[string]*obs.Hist, len(m.stages)),
	}
	for k, h := range m.stages {
		s.Stages[k] = h
	}
	if !m.begin.IsZero() && m.end.After(m.begin) {
		s.Window = m.end.Sub(m.begin)
		if secs := s.Window.Seconds(); secs > 0 {
			s.Throughput = float64(s.Completed) / secs
		}
	}
	return s
}

// Render writes the human-readable metrics report: counters,
// throughput, and one histogram line per pipeline stage (in core's
// pipeline order, then any unknown stages alphabetically, then the
// whole-run line).
func (m *Metrics) Render(w io.Writer) error {
	s := m.Snapshot()
	if _, err := fmt.Fprintf(w, "engine metrics: started=%d completed=%d failed=%d retried=%d window=%s throughput=%.1f runs/s\n",
		s.Started, s.Completed, s.Failed, s.Retried, s.Window.Round(time.Millisecond), s.Throughput); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-13s %6s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50", "p95", "max"); err != nil {
		return err
	}
	line := func(name string, h *obs.Hist) error {
		var mean float64
		if n := h.Count(); n > 0 {
			mean = h.Sum() / float64(n)
		}
		_, err := fmt.Fprintf(w, "  %-13s %6d %10s %10s %10s %10s\n",
			name, h.Count(), round(mean), round(h.Quantile(0.50)), round(h.Quantile(0.95)), round(h.Max()))
		return err
	}
	seen := map[string]bool{}
	for _, st := range core.Stages {
		if h, ok := s.Stages[st]; ok {
			seen[st] = true
			if err := line(st, h); err != nil {
				return err
			}
		}
	}
	var extra []string
	for st := range s.Stages {
		if !seen[st] {
			extra = append(extra, st)
		}
	}
	sort.Strings(extra)
	for _, st := range extra {
		if err := line(st, s.Stages[st]); err != nil {
			return err
		}
	}
	return line("run", s.Run)
}

// GatherMetrics implements obs.Gatherer: the engine's counters and
// histograms unify into the obs registry's Prometheus/expvar renderers
// without duplicating state — the registry snapshots this sink at
// render time. Register with obs.Metrics().RegisterGatherer(m).
func (m *Metrics) GatherMetrics() []obs.Family {
	s := m.Snapshot()
	stagePoints := make([]obs.Point, 0, len(s.Stages))
	seen := map[string]bool{}
	for _, st := range core.Stages {
		if h, ok := s.Stages[st]; ok {
			seen[st] = true
			stagePoints = append(stagePoints, h.Point(obs.Label{Key: "stage", Value: st}))
		}
	}
	var extra []string
	for st := range s.Stages {
		if !seen[st] {
			extra = append(extra, st)
		}
	}
	sort.Strings(extra)
	for _, st := range extra {
		stagePoints = append(stagePoints, s.Stages[st].Point(obs.Label{Key: "stage", Value: st}))
	}
	return []obs.Family{
		{Name: "engine_runs_started_total", Help: "Study runs started.", Type: "counter",
			Points: []obs.Point{{Value: float64(s.Started)}}},
		{Name: "engine_runs_completed_total", Help: "Study runs completed successfully.", Type: "counter",
			Points: []obs.Point{{Value: float64(s.Completed)}}},
		{Name: "engine_runs_failed_total", Help: "Study runs that returned an error.", Type: "counter",
			Points: []obs.Point{{Value: float64(s.Failed)}}},
		{Name: "engine_runs_retried_total", Help: "Transient-failure retries across all runs.", Type: "counter",
			Points: []obs.Point{{Value: float64(s.Retried)}}},
		{Name: "engine_throughput_runs_per_second", Help: "Completed runs per second over the observation window.", Type: "gauge",
			Points: []obs.Point{{Value: s.Throughput}}},
		{Name: "engine_run_duration_seconds", Help: "Whole-run wall time.", Type: "histogram",
			Points: []obs.Point{s.Run.Point()}},
		{Name: "engine_stage_duration_seconds", Help: "Per-stage wall time of the study pipeline.", Type: "histogram",
			Points: stagePoints},
	}
}

// round converts histogram seconds to a duration trimmed to a readable
// resolution.
func round(secs float64) time.Duration {
	d := time.Duration(secs * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

package pblparallel

// Observability integration tests: the tracing/metrics layer crosses
// every subsystem, so its end-to-end guarantees — a loadable trace with
// all four runtimes on it, a parseable exposition, and zero effect on
// study results — are verified here rather than in any one package.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/obs"
)

// TestTraceCoversAllSubsystems runs one study under an installed tracer
// and checks the exported Chrome trace is valid JSON carrying spans from
// the core pipeline, the omp and mpi runtimes, and the pisim virtual
// timelines — the observability layer's end-to-end contract.
func TestTraceCoversAllSubsystems(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	obs.Install(tr)
	defer obs.Install(nil)

	if _, err := core.NewStudy().Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			PID  uint32  `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	cats := map[string]int{}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			cats[e.Cat]++
			spans[e.Cat+"/"+e.Name] = true
		}
	}
	for _, cat := range []string{"core", "engine", "omp", "mpi", "pisim"} {
		if cat == "engine" {
			continue // a single Run never enters the engine pool
		}
		if cats[cat] == 0 {
			t.Errorf("trace has no %q events (got %v)", cat, cats)
		}
	}
	for _, want := range []string{
		"core/study", "core/practicum", "omp/parallel", "omp/barrier.wait",
		"omp/chunk", "mpi/send", "mpi/recv", "pisim/chunk", "pisim/barrier",
	} {
		if !spans[want] {
			t.Errorf("trace missing %s span", want)
		}
	}
}

// TestPrometheusExpositionParses gathers the process registry after a
// sweep on an engine recording into it and line-checks the text
// exposition: every sample line is `name{labels} value`, histograms end
// with +Inf buckets, and the engine's families sit beside the
// runtimes'.
func TestPrometheusExpositionParses(t *testing.T) {
	reg := obs.Metrics()
	e := engine.New(engine.WithWorkers(2), engine.WithMetrics(reg))
	// The process registry outlives one test run (-count=N); the
	// engine's lines are checked against what this sweep adds.
	practicum := reg.HistogramVec("engine_stage_duration_seconds", "", "stage").With("practicum").Count()
	completed := reg.Counter("engine_runs_completed_total", "").Value()
	if _, err := e.Sweep(context.Background(), core.PaperStudy(), engine.SequentialSeeds(7), 3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE engine_stage_duration_seconds histogram",
		fmt.Sprintf(`engine_stage_duration_seconds_bucket{stage="practicum",le="+Inf"} %d`, practicum+3),
		fmt.Sprintf("engine_runs_completed_total %d", completed+3),
		"# TYPE engine_run_duration_seconds histogram",
		"# TYPE core_studies_started_total counter",
		"# TYPE omp_parallel_regions_total counter",
		"# TYPE mpi_messages_sent_total counter",
		"# TYPE pisim_loops_total counter",
		// The identity block: every exposition ties its numbers to a
		// binary and a process start.
		"# TYPE build_info gauge",
		`build_info{version=`,
		"# TYPE process_start_time_seconds gauge",
		"process_start_time_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTracingDoesNotPerturbResults runs the same study with and without
// an installed tracer: the outcomes' statistics must match exactly —
// observability is read-only.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	plain, err := core.NewStudy(core.WithSeed(424242)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	obs.Install(obs.NewTracer(1 << 12))
	traced, err := core.NewStudy(core.WithSeed(424242)).Run(context.Background())
	obs.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.Table1.PersonalGrowth.T != traced.Report.Table1.PersonalGrowth.T ||
		plain.Report.Table2.D != traced.Report.Table2.D ||
		plain.Report.Table3.D != traced.Report.Table3.D {
		t.Fatal("tracing changed study statistics")
	}
	if plain.Practicum.TotalEvents != traced.Practicum.TotalEvents ||
		plain.Practicum.Dynamic.Makespan != traced.Practicum.Dynamic.Makespan {
		t.Fatal("tracing changed practicum results")
	}
}

package obs

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pblparallel/internal/sched"
)

// newTestRuntime starts a 2-worker scheduler and runs one indexed
// region over 1024 indices at grain 16 (64 chunks) so the gatherer has
// real ledgers to export.
func newTestRuntime(t *testing.T) *sched.Runtime {
	t.Helper()
	rt := sched.New(sched.WithWorkers(2))
	t.Cleanup(rt.Close)
	rt.ParallelIndexed(context.Background(), 1024, 2, 16, func(i, slot int) {})
	return rt
}

// Exposition-grammar regexes: a pragmatic subset of the OpenMetrics
// ABNF covering every construct this registry can emit. Each sample
// line is metric name, optional label set, a value, and an optional
// exemplar clause (`# {labels} value timestamp`).
var (
	reMetricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	reLabelSet   = `\{` + reMetricName + `="(?:[^"\\]|\\.)*"(?:,` + reMetricName + `="(?:[^"\\]|\\.)*")*\}`
	reValue      = `(?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)`
	reExemplar   = `(?: # ` + reLabelSet + ` ` + reValue + `(?: ` + reValue + `)?)?`
	reSample     = regexp.MustCompile(`^(` + reMetricName + `)(` + reLabelSet + `)? ` + reValue + reExemplar + `$`)
	reHelp       = regexp.MustCompile(`^# HELP ` + reMetricName + ` .*$`)
	reType       = regexp.MustCompile(`^# TYPE (` + reMetricName + `) (counter|gauge|histogram)$`)
)

// parseExposition validates every line of an exposition against the
// grammar and returns sample-name → count plus whether # EOF closed
// the stream. It fails the test on the first malformed line.
func parseExposition(t *testing.T, text string, allowExemplars bool) (samples map[string]int, sawEOF bool) {
	t.Helper()
	samples = make(map[string]int)
	types := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "# EOF":
			sawEOF = true
		case strings.HasPrefix(line, "# HELP "):
			if !reHelp.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := reType.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[m[1]] = m[2]
		default:
			m := reSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			if !allowExemplars && strings.Contains(line, " # {") {
				t.Fatalf("line %d: exemplar in a non-OpenMetrics exposition: %q", ln+1, line)
			}
			if strings.Contains(line, " # {") && !strings.Contains(m[1], "_bucket") {
				t.Fatalf("line %d: exemplar on a non-bucket sample: %q", ln+1, line)
			}
			samples[m[1]]++
		}
	}
	if len(types) == 0 {
		t.Fatal("exposition declared no metric types")
	}
	return samples, sawEOF
}

// buildTestRegistry assembles a registry exercising every instrument
// kind, with exemplars recorded through traced observations.
func buildTestRegistry(t *testing.T) (*Registry, TraceID) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("test_requests_total", "Requests.").Add(7)
	reg.Gauge("test_depth", "Queue depth.").Set(3.5)
	trace, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	h := reg.HistogramVec("test_latency_seconds", "Latency.", "route").With("/v1/run")
	h.Observe(0.004)
	h.ObserveTrace(0.05, trace)
	v := reg.HistogramVec("test_wait_seconds", "Wait by route.", "route")
	v.With("/v1/run").ObserveTrace(0.002, trace)
	v.With("/v1/sweep").Observe(0.3)
	return reg, trace
}

// TestOpenMetricsGrammar renders the registry through both writers and
// validates every line against the exposition grammar: Prometheus text
// carries no exemplars, OpenMetrics carries them on bucket lines only
// and terminates with # EOF.
func TestOpenMetricsGrammar(t *testing.T) {
	reg, trace := buildTestRegistry(t)

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	samples, sawEOF := parseExposition(t, prom.String(), false)
	if sawEOF {
		t.Fatal("Prometheus 0.0.4 exposition must not emit # EOF")
	}
	if samples["test_requests_total"] != 1 || samples["test_latency_seconds_bucket"] != histBuckets {
		t.Fatalf("unexpected prometheus samples: %v", samples)
	}

	var om strings.Builder
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	text := om.String()
	samples, sawEOF = parseExposition(t, text, true)
	if !sawEOF {
		t.Fatal("OpenMetrics exposition missing # EOF terminator")
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("# EOF must be the final line")
	}
	// Counter metadata drops the _total suffix; samples keep it.
	if !strings.Contains(text, "# TYPE test_requests counter") {
		t.Fatalf("counter TYPE metadata kept its _total suffix:\n%s", text)
	}
	if samples["test_requests_total"] != 1 {
		t.Fatalf("counter sample lost its _total suffix: %v", samples)
	}
	// The traced observations must surface as exemplars naming the trace.
	want := `# {trace_id="` + trace.String() + `"} 0.05`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing histogram exemplar %q:\n%s", want, text)
	}
	if !strings.Contains(text, `trace_id="`+trace.String()+`"} 0.002`) {
		t.Fatalf("exposition missing histvec exemplar:\n%s", text)
	}
	// The vec renders one labeled point per route, sorted.
	run := strings.Index(text, `test_wait_seconds_bucket{route="/v1/run"`)
	sweep := strings.Index(text, `test_wait_seconds_bucket{route="/v1/sweep"`)
	if run < 0 || sweep < 0 || run > sweep {
		t.Fatalf("histvec points missing or unsorted (run@%d sweep@%d)", run, sweep)
	}
}

// TestHistogramExemplarBuckets pins exemplar placement: the exemplar
// lands on the bucket its observation fell in, holds the latest traced
// value, and untraced observations never overwrite it.
func TestHistogramExemplarBuckets(t *testing.T) {
	old := nowUnixNano
	nowUnixNano = func() int64 { return 1_700_000_000_000_000_000 }
	defer func() { nowUnixNano = old }()

	reg := NewRegistry()
	h := reg.HistogramVec("x_seconds", "", "route").With("/v1/run")
	t1, _ := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	t2, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	const b, inf = 13, histBuckets - 1 // (2^-8 s, 2^-7 s] and +Inf
	h.ObserveTrace(0.005, t1)          // bucket b
	h.ObserveTrace(0.006, t2)          // bucket b again: latest wins
	h.Observe(0.007)                   // untraced: must not clear the exemplar
	h.ObserveTrace(20, t1)             // overflow (+Inf) bucket

	var fam *Family
	for _, f := range reg.Gather() {
		if f.Name == "x_seconds" {
			fam = &f
			break
		}
	}
	if fam == nil {
		t.Fatal("family not gathered")
	}
	p := fam.Points[0]
	if len(p.Exemplars) != histBuckets {
		t.Fatalf("exemplar slots = %d, want %d", len(p.Exemplars), histBuckets)
	}
	if p.Buckets[b].UpperBound != 0.0078125 {
		t.Fatalf("bucket %d bound = %v, want 2^-7", b, p.Buckets[b].UpperBound)
	}
	if p.Exemplars[b].Trace != t2 || p.Exemplars[b].Value != 0.006 {
		t.Fatalf("bucket %d exemplar = %+v, want latest traced (t2, 0.006)", b, p.Exemplars[b])
	}
	if p.Exemplars[b+1].Trace != (TraceID{}) {
		t.Fatalf("bucket %d exemplar = %+v, want empty", b+1, p.Exemplars[b+1])
	}
	if p.Exemplars[inf].Trace != t1 || p.Exemplars[inf].Value != 20 {
		t.Fatalf("+Inf exemplar = %+v, want (t1, 20)", p.Exemplars[inf])
	}
	if p.Exemplars[inf].AtNS != 1_700_000_000_000_000_000 {
		t.Fatalf("exemplar timestamp = %d, want pinned clock", p.Exemplars[inf].AtNS)
	}
	// Counts must be unaffected by exemplar bookkeeping.
	if p.Count != 4 || p.Buckets[b].CumulativeCount != 3 {
		t.Fatalf("counts perturbed: %+v", p)
	}
}

// TestSchedGathererFamilies runs real scheduler work and checks the
// gatherer surfaces consistent per-worker families.
func TestSchedGathererFamilies(t *testing.T) {
	reg := NewRegistry()
	rt := newTestRuntime(t)
	reg.RegisterGatherer(SchedGatherer(rt))
	fams := reg.Gather()
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	workers, ok := byName["sched_workers"]
	if !ok || workers.Points[0].Value != 2 {
		t.Fatalf("sched_workers missing or wrong: %+v", workers)
	}
	claims, ok := byName["sched_worker_grain_claims_total"]
	if !ok {
		t.Fatal("sched_worker_grain_claims_total not gathered")
	}
	// 2 workers + the external aggregate.
	if len(claims.Points) != 3 {
		t.Fatalf("grain-claim points = %d, want 3", len(claims.Points))
	}
	var total float64
	for _, p := range claims.Points {
		total += p.Value
	}
	if total != 64 { // 1024 indices / grain 16 = 64 chunks, claimed exactly once
		t.Fatalf("grain claims total = %g, want 64", total)
	}
	depth, ok := byName["sched_worker_deque_depth"]
	if !ok || len(depth.Points) != 2 {
		t.Fatalf("deque-depth points = %+v, want one per worker", depth)
	}
	// The whole sched surface must render through both writers cleanly.
	var om strings.Builder
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if _, sawEOF := parseExposition(t, om.String(), true); !sawEOF {
		t.Fatal("sched exposition missing # EOF")
	}
	if !strings.Contains(om.String(), `sched_worker_steals_total{worker="external"}`) {
		t.Fatalf("external participant aggregate missing:\n%s", om.String())
	}
}

// TestSchedGathererNil pins the disabled shape: a nil runtime gathers
// no families, so registration is safe unconditionally.
func TestSchedGathererNil(t *testing.T) {
	if fams := SchedGatherer(nil).GatherMetrics(); fams != nil {
		t.Fatalf("nil runtime gathered %d families", len(fams))
	}
}

// TestHistBoundsSorted guards the shared bucket layout the exemplar
// slots and histIndex index by: ascending powers of two ending in +Inf,
// each finite bound in its own (inclusive) bucket and the next float
// up in the following one, and 0.25 s exact for the latency SLO.
func TestHistBoundsSorted(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		if histBounds[i] <= histBounds[i-1] {
			t.Fatalf("histBounds unsorted at %d", i)
		}
	}
	if !math.IsInf(histBounds[histBuckets-1], 1) || math.IsInf(histBounds[histBuckets-2], 1) {
		t.Fatal("histBounds must end in exactly one +Inf bucket")
	}
	for i, b := range histBounds[:histBuckets-1] {
		if got := histIndex(b); got != i {
			t.Fatalf("histIndex(%v) = %d, want %d (le is inclusive)", b, got, i)
		}
		if got := histIndex(math.Nextafter(b, math.Inf(1))); got != i+1 {
			t.Fatalf("histIndex just above %v = %d, want %d", b, got, i+1)
		}
		// formatBound must round-trip every bound (exemplar/bucket labels
		// rely on exact rendering).
		if got, err := strconv.ParseFloat(formatBound(b), 64); err != nil || got != b {
			t.Fatalf("formatBound(%v) = %q does not round-trip", b, formatBound(b))
		}
	}
	for v, want := range map[float64]int{0: 0, -1: 0, 1e-9: 0, 0.25: 18, 1e9: histBuckets - 1,
		math.Inf(1): histBuckets - 1, math.NaN(): histBuckets - 1} {
		if got := histIndex(v); got != want {
			t.Errorf("histIndex(%v) = %d, want %d", v, got, want)
		}
	}
}

// ExampleRegistry_WriteOpenMetrics shows the exemplar clause shape.
func ExampleRegistry_WriteOpenMetrics() {
	old := nowUnixNano
	nowUnixNano = func() int64 { return 1_700_000_000_500_000_000 }
	defer func() { nowUnixNano = old }()
	reg := NewRegistry()
	trace, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	reg.HistogramVec("demo_seconds", "Demo.", "route").With("/v1/run").ObserveTrace(0.05, trace)
	var b strings.Builder
	_ = reg.WriteOpenMetrics(&b)
	// Print the exemplared bucket and the +Inf bucket; the other 24
	// bucket lines carry no exemplar.
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.Contains(line, "_bucket") || strings.Contains(line, "trace_id") || strings.Contains(line, "+Inf") {
			fmt.Print(line)
		}
	}
	// Output:
	// # HELP demo_seconds Demo.
	// # TYPE demo_seconds histogram
	// demo_seconds_bucket{route="/v1/run",le="0.0625"} 1 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.05 1700000000.500
	// demo_seconds_bucket{route="/v1/run",le="+Inf"} 1
	// demo_seconds_sum{route="/v1/run"} 0.05
	// demo_seconds_count{route="/v1/run"} 1
	// # EOF
}

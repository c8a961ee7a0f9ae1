package flightrec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/tsdb"
)

// newTestRecorder builds a recorder on a private registry so counters
// don't collide across tests.
func newTestRecorder(cfg Config) *Recorder {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(cfg)
}

// dumps reads flightrec_dumps_total from the recorder's registry, the
// count /metrics exposes.
func dumps(r *Recorder) float64 {
	for _, f := range r.reg.Gather() {
		if f.Name == "flightrec_dumps_total" {
			return f.Points[0].Value
		}
	}
	return 0
}

func TestEventsWindowedAndSorted(t *testing.T) {
	r := newTestRecorder(Config{Window: time.Minute})
	tr := obs.NewTraceID()
	r.Event(KindShed, "serve.queue", 1, tr)
	r.Event(KindRetry, "engine.run", 2, obs.TraceID{})
	r.Event(KindCorruptionHealed, "serve.cache", 3, tr)

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() = %d records, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatal("events not sorted oldest-first")
		}
	}
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"shed", "retry", "corruption-healed"} {
		if !kinds[want] {
			t.Errorf("missing kind %q in %v", want, kinds)
		}
	}
}

func TestEventsOutsideWindowDropped(t *testing.T) {
	r := newTestRecorder(Config{Window: time.Nanosecond})
	r.Event(KindShed, "serve.queue", 1, obs.TraceID{})
	time.Sleep(2 * time.Millisecond)
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("window should have expired the event, got %v", evs)
	}
}

func TestEventRingOverwrites(t *testing.T) {
	r := newTestRecorder(Config{Capacity: 32, Window: time.Minute})
	for i := 0; i < 10000; i++ {
		r.Event(KindRetry, "engine.run", uint64(i), obs.TraceID{})
	}
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("ring lost everything")
	}
	// Shards round capacity up to 16 slots each; the bound is the real
	// allocated size, not the requested one.
	total := 0
	for i := range r.shards {
		total += len(r.shards[i].buf)
	}
	if len(evs) > total {
		t.Fatalf("Events() = %d records from a %d-slot ring", len(evs), total)
	}
}

func TestTriggerRateLimitAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(Config{Window: time.Minute, MinGap: time.Hour, Dir: dir})
	trace := obs.NewTraceID()
	r.Event(KindShed, "serve.queue", 7, trace)

	path := r.Trigger("unit-test", trace)
	if path == "" {
		t.Fatal("first Trigger should write a file")
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "unit-test") {
		t.Fatalf("bundle path %q not under %q", path, dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("bundle file is not valid JSON: %v", err)
	}
	if b.Reason != "unit-test" || b.Trace != trace {
		t.Fatalf("bundle reason/trace = %q/%s", b.Reason, b.Trace)
	}
	if len(b.Events) == 0 || b.Build["go"] == nil {
		t.Fatalf("bundle incomplete: %+v", b)
	}

	// In-memory copy matches the file.
	if !bytes.Equal(r.LastBundle(), raw) {
		t.Fatal("LastBundle differs from the written file")
	}
	if n := dumps(r); n != 1 {
		t.Fatalf("flightrec_dumps_total = %v, want 1", n)
	}

	// Within MinGap: suppressed.
	if p := r.Trigger("again", trace); p != "" {
		t.Fatalf("second Trigger inside MinGap wrote %q", p)
	}
	if dumps(r) != 1 {
		t.Fatal("suppressed trigger still counted as a dump")
	}
}

func TestTriggerSanitizesReason(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(Config{MinGap: time.Hour, Dir: dir})
	path := r.Trigger("http-500-/v1/run", obs.TraceID{})
	if path == "" {
		t.Fatal("Trigger wrote nothing")
	}
	base := filepath.Base(path)
	if strings.ContainsAny(base, "/ ") || !strings.Contains(base, "http-500-_v1_run") {
		t.Fatalf("unsafe bundle filename %q", base)
	}
}

// TestWriteBundleIncludesWindowedSpans: an on-demand bundle carries the
// tracer's recent spans with their correlation intact.
func TestWriteBundleIncludesWindowedSpans(t *testing.T) {
	tr := obs.NewTracer(1 << 10)
	obs.Install(tr)
	defer obs.Install(nil)

	trace := obs.NewTraceID()
	sp := tr.Span(obs.PIDEngine, 2, "engine", "run").
		Trace(obs.TraceContext{Trace: trace})
	sp.End()

	r := newTestRecorder(Config{Window: time.Minute})
	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "on-demand", trace); err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatalf("bundle not valid JSON: %v", err)
	}
	found := false
	for _, s := range b.Spans {
		if s.Cat == "engine" && s.Name == "run" && s.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle spans missing the traced engine run: %+v", b.Spans)
	}
	// WriteBundle is never rate-limited.
	for i := 0; i < 3; i++ {
		if err := r.WriteBundle(&bytes.Buffer{}, "again", obs.TraceID{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBundleWithHistogramFamilies is the daemon regression: the
// registry's histograms carry a +Inf bucket bound, which must survive
// the bundle's JSON round trip (encoding/json rejects raw infinities).
func TestBundleWithHistogramFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.HistogramVec("test_latency_seconds", "latency", "route").With("/v1/run")
	h.Observe(0.005)
	h.Observe(20)
	r := newTestRecorder(Config{Registry: reg, Window: time.Minute})

	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "histo", obs.TraceID{}); err != nil {
		t.Fatalf("WriteBundle with histogram families: %v", err)
	}
	var b Bundle
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatalf("bundle round trip: %v", err)
	}
	for _, f := range b.Metrics {
		if f.Name != "test_latency_seconds" {
			continue
		}
		last := f.Points[0].Buckets[len(f.Points[0].Buckets)-1]
		if !math.IsInf(last.UpperBound, 1) {
			t.Fatalf("last bucket bound = %v, want +Inf", last.UpperBound)
		}
		if last.CumulativeCount != 2 {
			t.Fatalf("+Inf bucket count = %d, want 2", last.CumulativeCount)
		}
		return
	}
	t.Fatal("bundle metrics missing test_latency_seconds")
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Event(KindShed, "x", 0, obs.TraceID{})
	if r.Events() != nil || r.LastBundle() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if r.Trigger("x", obs.TraceID{}) != "" {
		t.Fatal("nil Trigger returned a path")
	}
	if err := r.WriteBundle(&bytes.Buffer{}, "x", obs.TraceID{}); err == nil {
		t.Fatal("nil WriteBundle should error")
	}
}

// TestDisabledPathZeroAlloc pins the contract the hot paths rely on:
// with no recorder installed, Active().Event is free.
func TestDisabledPathZeroAlloc(t *testing.T) {
	Install(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		Active().Event(KindRetry, "engine.run", 1, obs.TraceID{})
	})
	if allocs != 0 {
		t.Fatalf("disabled Event allocates %.1f/op, want 0", allocs)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindShed: "shed", KindRetry: "retry", KindFaultInjected: "fault-injected",
		KindCorruptionHealed: "corruption-healed", KindBarrierPoisoned: "barrier-poisoned",
		KindDump: "dump", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// BenchmarkEventDisabled is the number EXPERIMENTS.md quotes: the cost
// of an incident site when no recorder is installed.
func BenchmarkEventDisabled(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Active().Event(KindRetry, "engine.run", uint64(i), obs.TraceID{})
	}
}

// BenchmarkEventEnabled is the recording-on counterpart.
func BenchmarkEventEnabled(b *testing.B) {
	r := newTestRecorder(Config{Capacity: 1 << 12, Window: time.Minute})
	Install(r)
	defer Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Active().Event(KindRetry, "engine.run", uint64(i), obs.TraceID{})
	}
}

func TestBundleEmbedsTSDBWindow(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total", "demo").Add(5)
	db := tsdb.New(tsdb.Config{Registry: reg})
	now := time.Now()
	db.SampleOnce(now.Add(-2 * time.Second))
	reg.Counter("demo_total", "demo").Add(5)
	db.SampleOnce(now.Add(-1 * time.Second))

	r := newTestRecorder(Config{Window: time.Minute, Registry: reg})
	r.AttachTSDB(db)
	var buf bytes.Buffer
	if err := r.WriteBundle(&buf, "test", obs.TraceID{}); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	var b Bundle
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatalf("unmarshal bundle: %v", err)
	}
	var demo *tsdb.SeriesDump
	for i := range b.TSDB {
		if b.TSDB[i].Series == "demo_total" {
			demo = &b.TSDB[i]
		}
	}
	if demo == nil || len(demo.Samples) != 2 {
		t.Fatalf("bundle TSDB window missing demo_total history: %+v", b.TSDB)
	}
	if demo.Samples[0].V != 5 || demo.Samples[1].V != 10 {
		t.Fatalf("embedded samples = %+v, want values 5 then 10", demo.Samples)
	}

	// Detach: the next bundle carries no TSDB window.
	r.AttachTSDB(nil)
	buf.Reset()
	if err := r.WriteBundle(&buf, "test", obs.TraceID{}); err != nil {
		t.Fatalf("WriteBundle after detach: %v", err)
	}
	var b2 Bundle
	if err := json.Unmarshal(buf.Bytes(), &b2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(b2.TSDB) != 0 {
		t.Fatalf("detached recorder still embedded %d series", len(b2.TSDB))
	}
}

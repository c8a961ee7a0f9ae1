package tsdb

import (
	"math"
	"testing"
	"time"

	"pblparallel/internal/obs"
)

func testDB(t *testing.T, reg *obs.Registry) *DB {
	t.Helper()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return New(Config{Registry: reg})
}

func TestDBSamplesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("demo_total", "demo counter")
	g := reg.Gauge("demo_depth", "demo gauge")
	h := reg.Histogram("demo_seconds", "demo histogram")
	db := testDB(t, reg)

	base := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < 5; i++ {
		c.Add(10)
		g.Set(float64(i))
		h.Observe(0.05)
		h.Observe(2)
		db.SampleOnce(base.Add(time.Duration(i) * 5 * time.Second))
	}

	counter := db.SamplesBetween("demo_total", 0, math.MaxInt64)
	if len(counter) != 5 {
		t.Fatalf("demo_total: %d samples, want 5", len(counter))
	}
	if got := IncreaseSamples(counter); got != 40 {
		t.Fatalf("demo_total increase = %v, want 40 (10/tick across 4 intervals)", got)
	}
	if got := RateSamples(counter); got != 2 {
		t.Fatalf("demo_total rate = %v, want 2/s (40 over 20s)", got)
	}

	gauge := db.SamplesBetween("demo_depth", 0, math.MaxInt64)
	if got := AvgSamples(gauge); got != 2 {
		t.Fatalf("demo_depth avg = %v, want 2", got)
	}

	// Histogram explosion: _sum, _count, and one _bucket per bound (+Inf
	// included).
	if got := db.SamplesBetween("demo_seconds_count", 0, math.MaxInt64); len(got) != 5 || got[4].V != 10 {
		t.Fatalf("demo_seconds_count: got %v", got)
	}
	for _, key := range []string{`demo_seconds_bucket{le="0.0625"}`, `demo_seconds_bucket{le="2"}`, `demo_seconds_bucket{le="+Inf"}`} {
		if got := db.SamplesBetween(key, 0, math.MaxInt64); len(got) != 5 {
			t.Fatalf("%s: %d samples, want 5", key, len(got))
		}
	}

	// The store samples its own instruments on the next tick.
	db.SampleOnce(base.Add(30 * time.Second))
	if got := db.SamplesBetween("tsdb_samples_appended_total", 0, math.MaxInt64); len(got) == 0 {
		t.Fatal("store did not sample its own tsdb_samples_appended_total")
	}
}

func TestDBRangeQuery(t *testing.T) {
	db := testDB(t, nil)
	for i := int64(0); i < 10; i++ {
		db.AppendSample("requests_total", []obs.Label{{Key: "route", Value: "/compute"}}, "counter", i*1000, float64(i*5))
	}
	res := db.RangeQuery("requests_total", "rate", 0, 9000)
	if len(res) != 1 {
		t.Fatalf("RangeQuery returned %d series, want 1", len(res))
	}
	if res[0].Series != `requests_total{route="/compute"}` {
		t.Fatalf("series key %q", res[0].Series)
	}
	if res[0].Value == nil || *res[0].Value != 5 {
		t.Fatalf("rate = %v, want 5/s", res[0].Value)
	}
	// Partial window: samples clipped to [3000, 6000].
	res = db.RangeQuery("requests_total", "increase", 3000, 6000)
	if got := len(res[0].Samples); got != 4 {
		t.Fatalf("window held %d samples, want 4", got)
	}
	if *res[0].Value != 15 {
		t.Fatalf("windowed increase = %v, want 15", *res[0].Value)
	}
	// The family name also resolves an exact key.
	if infos := db.Select(`requests_total{route="/compute"}`, nil); len(infos) != 1 {
		t.Fatalf("exact-key select returned %d series", len(infos))
	}
}

func TestIncreaseCounterReset(t *testing.T) {
	// A daemon restart zeroes counters mid-window; increase() must
	// count 10 (0→10) + 4 (reset to 1, then 1→4... i.e. 1 post-reset
	// baseline counts in full: 3 grows + the reset value 1).
	samples := []Sample{{T: 0, V: 0}, {T: 1, V: 10}, {T: 2, V: 1}, {T: 3, V: 4}}
	if got := IncreaseSamples(samples); got != 14 {
		t.Fatalf("increase across reset = %v, want 14", got)
	}
	if got := IncreaseSamples(nil); got != 0 {
		t.Fatalf("increase of empty = %v", got)
	}
}

func TestDBRetention(t *testing.T) {
	db := New(Config{Registry: obs.NewRegistry(), Retention: time.Minute, ChunkSamples: 10})
	// 1 sample/s for 5 minutes: all but the last ~minute must age out.
	for i := int64(0); i < 300; i++ {
		db.AppendSample("g", nil, "gauge", i*1000, float64(i))
	}
	got := db.SamplesBetween("g", 0, math.MaxInt64)
	if len(got) == 300 {
		t.Fatal("retention kept every sample")
	}
	// Everything still present must be newer than now-retention minus
	// one chunk of slack (trim is chunk-granular).
	cutoff := int64(299_000 - 60_000 - 10_000)
	for _, s := range got {
		if s.T < cutoff {
			t.Fatalf("sample at %d survived past retention cutoff %d", s.T, cutoff)
		}
	}
}

func TestDBMaxSeries(t *testing.T) {
	db := New(Config{Registry: obs.NewRegistry(), MaxSeries: 3})
	labels := func(v string) []obs.Label { return []obs.Label{{Key: "id", Value: v}} }
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		db.AppendSample("m", labels(id), "gauge", 1000, 1)
	}
	if got := len(db.Keys()); got != 3 {
		t.Fatalf("series count %d, want 3 (MaxSeries bound)", got)
	}
	// Existing series still accept appends past the bound.
	db.AppendSample("m", labels("a"), "gauge", 2000, 2)
	if got := db.SamplesBetween(`m{id="a"}`, 0, math.MaxInt64); len(got) != 2 {
		t.Fatalf("existing series rejected append after bound: %d samples", len(got))
	}
}

func TestDBNonMonotonicDropped(t *testing.T) {
	db := testDB(t, nil)
	db.AppendSample("g", nil, "gauge", 5000, 1)
	db.AppendSample("g", nil, "gauge", 5000, 2) // same instant: dropped
	db.AppendSample("g", nil, "gauge", 4000, 3) // backwards: dropped
	db.AppendSample("g", nil, "gauge", 6000, 4)
	got := db.SamplesBetween("g", 0, math.MaxInt64)
	want := []Sample{{T: 5000, V: 1}, {T: 6000, V: 4}}
	if !sampleEq(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQuantileOverTime(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "latency")
	db := testDB(t, reg)
	base := time.UnixMilli(1_700_000_000_000)
	db.SampleOnce(base)
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // le=0.0625
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.3) // le=0.5
	}
	db.SampleOnce(base.Add(5 * time.Second))

	res := db.QuantileOverTime("lat_seconds", 0.9, 0, math.MaxInt64)
	if len(res) != 1 {
		t.Fatalf("quantile returned %d groups, want 1", len(res))
	}
	// rank 90 lands exactly on the le=0.0625 bucket boundary.
	if got := *res[0].Value; math.Abs(got-0.0625) > 1e-9 {
		t.Fatalf("p90 = %v, want 0.0625", got)
	}
	// p99: rank 99 interpolates inside (0.25, 0.5].
	res = db.QuantileOverTime("lat_seconds", 0.99, 0, math.MaxInt64)
	if got := *res[0].Value; got <= 0.25 || got > 0.5 {
		t.Fatalf("p99 = %v, want in (0.25, 0.5]", got)
	}
	// Zero-observation window → 0, not NaN.
	res = db.QuantileOverTime("lat_seconds", 0.9, base.Add(time.Hour).UnixMilli(), math.MaxInt64)
	if got := *res[0].Value; got != 0 {
		t.Fatalf("quantile over empty window = %v, want 0", got)
	}
}

func TestDumpWindow(t *testing.T) {
	db := testDB(t, nil)
	db.AppendSample("a_total", nil, "counter", 1000, 1)
	db.AppendSample("a_total", nil, "counter", 2000, 2)
	db.AppendSample("b_depth", nil, "gauge", 9000, 7)
	dump := db.DumpWindow(0, 5000)
	if len(dump) != 1 || dump[0].Series != "a_total" || len(dump[0].Samples) != 2 {
		t.Fatalf("dump = %+v, want just a_total's two samples", dump)
	}
	if db.DumpWindow(10_000, 20_000) != nil && len(db.DumpWindow(10_000, 20_000)) != 0 {
		t.Fatal("empty window dumped series")
	}
	var nilDB *DB
	if nilDB.DumpWindow(0, 1) != nil {
		t.Fatal("nil DB dump")
	}
}

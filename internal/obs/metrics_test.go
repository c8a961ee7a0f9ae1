package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "Total runs.")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("runs_total", "") != c {
		t.Fatal("Counter is not idempotent by name")
	}
	g := r.Gauge("throughput", "Runs per second.")
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.HistogramVec("latency_seconds", "Latency.", "route").With("/v1/run")
	h.Observe(0.05) // (2^-5, 2^-4]
	h.Observe(0.5)  // exactly 2^-1
	h.Observe(5)    // (4, 8]
	p := h.Point()
	if p.Count != 3 || p.Sum != 5.55 {
		t.Fatalf("hist count=%d sum=%v", p.Count, p.Sum)
	}
	for i, want := range map[int]uint64{15: 0, 16: 1, 19: 2, 22: 2, 23: 3, histBuckets - 1: 3} {
		if got := p.Buckets[i].CumulativeCount; got != want {
			t.Fatalf("bucket %d (le=%v) cumulative = %d, want %d", i, p.Buckets[i].UpperBound, got, want)
		}
	}
	if len(p.Buckets) != histBuckets || !math.IsInf(p.Buckets[histBuckets-1].UpperBound, 1) {
		t.Fatal("missing +Inf bucket")
	}
}

// TestHistConcurrentObserve drives the lock-free observe path from
// several goroutines, traced and untraced, while others snapshot and
// read quantiles: counts, sum and buckets must come out exact (the
// values are binary fractions, so any summation order is exact) and
// every read in flight must stay inside the observed buckets.
func TestHistConcurrentObserve(t *testing.T) {
	h := new(Hist)
	trace := NewTraceID()
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := float64(1+(w*per+i)%64) / 1024 // 1/1024 .. 64/1024 s
				if i%2 == 0 {
					h.ObserveTrace(v, trace)
				} else {
					h.Observe(v)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// 1/1024 = 2^-10 lands in the bucket above 2^-11.
			if q := BucketQuantile(0.99, h.Point().Buckets); q != 0 && (q < 1.0/2048 || q > 64.0/1024) {
				t.Errorf("in-flight p99 = %v outside the observed buckets", q)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	var wantSum float64
	for j := 0; j < workers*per; j++ {
		wantSum += float64(1+j%64) / 1024
	}
	p := h.Point()
	if p.Count != workers*per || p.Sum != wantSum {
		t.Fatalf("count=%d sum=%v, want %d %v", p.Count, p.Sum, workers*per, wantSum)
	}
	// Bound i is 2^(i-20): nothing at or below 2^-11, everything by 2^-4.
	if p.Buckets[9].CumulativeCount != 0 || p.Buckets[16].CumulativeCount != p.Count {
		t.Fatalf("observations outside (2^-11, 2^-4]: %+v", p.Buckets)
	}
	if p.Buckets[histBuckets-1].CumulativeCount != p.Count || len(p.Exemplars) != histBuckets {
		t.Fatalf("buckets/exemplars inconsistent: %+v", p)
	}
}

// TestHistQuantileInterpolatesWithinBucket: samples spread over several
// buckets give estimates that are monotone in q and interpolate inside
// the bucket the rank falls in.
func TestHistQuantileInterpolatesWithinBucket(t *testing.T) {
	h := new(Hist)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1..100 ms
	}
	bs := h.Point().Buckets
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := BucketQuantile(q, bs)
		if got < prev {
			t.Errorf("BucketQuantile(%v) = %v < previous %v (not monotone)", q, got, prev)
		}
		prev = got
	}
	// 1..100 ms: 31 samples at or below 2^-5 s, 62 at or below 2^-4 s,
	// so p50 (rank 50) reads 2^-5 + 2^-5·(50-31)/(62-31).
	if got, want := BucketQuantile(0.5, bs), 0.03125+0.03125*19/31; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p100 of samples up to 0.1 s reads the top of the (2^-4, 2^-3] bucket.
	if got := BucketQuantile(1, bs); got != 0.125 {
		t.Errorf("p100 = %v, want 0.125", got)
	}
}

// TestHistQuantileEmptyHistogram: no observations read 0, not a panic.
func TestHistQuantileEmptyHistogram(t *testing.T) {
	if got := BucketQuantile(0.5, new(Hist).Point().Buckets); got != 0 {
		t.Errorf("empty BucketQuantile = %v, want 0", got)
	}
}

func TestWritePrometheusParsesCleanly(t *testing.T) {
	r := NewRegistry()
	r.Counter("pbl_runs_total", "Total study runs.").Add(3)
	r.Gauge("pbl_throughput", "Runs per second.").Set(1.5)
	r.HistogramVec("pbl_latency_seconds", "Run latency.", "route").With("/v1/run").Observe(0.02)
	r.RegisterGatherer(GathererFunc(func() []Family {
		return []Family{{
			Name: "external_stage_seconds", Help: "From a gatherer.", Type: "histogram",
			Points: []Point{{
				Labels:  []Label{{Key: "stage", Value: `co"hort`}},
				Buckets: []Bucket{{UpperBound: 1, CumulativeCount: 2}, {UpperBound: math.Inf(1), CumulativeCount: 2}},
				Sum:     0.5, Count: 2,
			}},
		}}
	}))

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var families []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	for _, want := range []string{
		`pbl_runs_total 3`,
		`pbl_throughput 1.5`,
		`pbl_latency_seconds_bucket{route="/v1/run",le="0.015625"} 0`,
		`pbl_latency_seconds_bucket{route="/v1/run",le="0.03125"} 1`,
		`pbl_latency_seconds_bucket{route="/v1/run",le="+Inf"} 1`,
		`pbl_latency_seconds_count{route="/v1/run"} 1`,
		`external_stage_seconds_bucket{stage="co\"hort",le="1"} 2`,
		`external_stage_seconds_sum{stage="co\"hort"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if len(families) != 4 {
		t.Errorf("rendered %d TYPE lines, want 4", len(families))
	}
	// Families come out sorted by name for deterministic scrapes.
	if !strings.HasPrefix(out, "# HELP external_stage_seconds") {
		t.Errorf("families not sorted:\n%s", out[:60])
	}
}

func TestHistogramSumLineCarriesLabels(t *testing.T) {
	r := NewRegistry()
	r.RegisterGatherer(GathererFunc(func() []Family {
		return []Family{{
			Name: "labeled_seconds", Type: "histogram",
			Points: []Point{{
				Labels:  []Label{{Key: "stage", Value: "teams"}},
				Buckets: []Bucket{{UpperBound: math.Inf(1), CumulativeCount: 1}},
				Sum:     2, Count: 1,
			}},
		}}
	}))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `labeled_seconds_sum{stage="teams"} 2`) {
		t.Fatalf("sum line lost its labels:\n%s", buf.String())
	}
}

func TestExpvarRendererEmitsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.HistogramVec("b_seconds", "", "route").With("/v1/run").Observe(0.5)
	s := r.ExpvarFunc().String()
	var decoded map[string]any
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, s)
	}
	if _, ok := decoded["a_total"]; !ok {
		t.Fatalf("counter missing from expvar view: %s", s)
	}
	if _, ok := decoded["b_seconds"]; !ok {
		t.Fatalf("histogram missing from expvar view: %s", s)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	// A second call must not panic (expvar.Publish does on duplicates).
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry")
}

package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)

	ok := m.Middleware("/v1/run", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("ok")) // implicit 200
	}))
	shed := m.Middleware("/v1/run", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	shed.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/run", nil))
	if rec.Code != 429 {
		t.Fatalf("status = %d", rec.Code)
	}

	if got := inFlight(m); got != 0 {
		t.Fatalf("in-flight after completion = %v, want 0", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		`http_requests_total{route="/v1/run",code="200"} 3`,
		`http_requests_total{route="/v1/run",code="429"} 1`,
		`http_request_duration_seconds_count{route="/v1/run"} 4`,
		"http_in_flight_requests 0",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}

	// The 2ms handler sleep must show in the µs-resolving histogram:
	// the median lands in the bucket (2^-9 s, 2^-8 s] holding 2ms, or
	// above it.
	p := reg.HistogramVec("http_request_duration_seconds", "", "route").With("/v1/run").Point()
	if q := BucketQuantile(0.5, p.Buckets); q < 1.0/512 {
		t.Errorf("median latency = %v, want >= 2^-9 s", q)
	}
	if strings.Contains(expo, `route="/missing"`) {
		t.Errorf("exposition names a route that was never wrapped:\n%s", expo)
	}
}

// inFlight reads http_in_flight_requests the way /metrics renders it.
func inFlight(m *HTTPMetrics) float64 {
	for _, f := range m.GatherMetrics() {
		if f.Name == "http_in_flight_requests" {
			return f.Points[0].Value
		}
	}
	return -1
}

func TestHTTPMetricsInFlightDuringRequest(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry())
	entered := make(chan struct{})
	release := make(chan struct{})
	h := m.Middleware("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
	}))
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
		close(done)
	}()
	<-entered
	if got := inFlight(m); got != 1 {
		t.Fatalf("in-flight during request = %v, want 1", got)
	}
	close(release)
	<-done
	if got := inFlight(m); got != 0 {
		t.Fatalf("in-flight after request = %v, want 0", got)
	}
}

package obs

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPMetrics instruments HTTP handlers: per-route latency histograms
// (http_request_duration_seconds, a registry HistVec), per-route/status
// request counters (http_requests_total) and a process-wide in-flight
// gauge (http_in_flight_requests). Construct with NewHTTPMetrics, which
// also registers the counter and gauge families as a Gatherer.
type HTTPMetrics struct {
	durations *HistVec
	inFlight  atomic.Int64

	mu     sync.Mutex
	routes map[string]*statusCounts
}

// statusCounts counts one route's responses by status code. net/http
// only accepts codes 100–999, so the code indexes the array directly.
type statusCounts [1000]atomic.Uint64

// NewHTTPMetrics builds an HTTPMetrics and registers it on reg (the
// process registry when nil).
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	if reg == nil {
		reg = Metrics()
	}
	m := &HTTPMetrics{
		durations: reg.HistogramVec("http_request_duration_seconds", "HTTP request latency, by route.", "route"),
		routes:    make(map[string]*statusCounts),
	}
	reg.RegisterGatherer(m)
	return m
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status before delegating.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 like net/http does.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// onServerError is the process-wide 5xx hook (set by the serve layer to
// trigger flight-recorder dumps). A hook, not an import: obs must stay
// dependency-free so every subsystem can instrument through it.
var onServerError atomic.Pointer[func(route string, code int, tc TraceContext)]

// OnServerError installs f to be called after any instrumented handler
// responds with a 5xx status; nil uninstalls. f runs on the request
// goroutine and must be fast and non-blocking.
func OnServerError(f func(route string, code int, tc TraceContext)) {
	if f == nil {
		onServerError.Store(nil)
		return
	}
	onServerError.Store(&f)
}

// Middleware wraps next, attributing its requests to route. Nil-safe:
// a nil receiver returns next unwrapped, so wiring is unconditional.
// The route's histogram and status counters are resolved here, once,
// so a request pays only atomic updates.
//
// Beyond metrics, the middleware is the trace ingress: it adopts the
// caller's W3C traceparent (or mints a fresh trace ID), exposes the ID
// on every response as X-Trace-Id — cache hits included, so a client
// holding an X-Study-Key can still fetch its span tree — stamps the
// request context, opens the root "request" span when a tracer is
// installed, and echoes a traceparent response header for downstream
// correlation.
func (m *HTTPMetrics) Middleware(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	hist := m.durations.With(route)
	m.mu.Lock()
	codes, ok := m.routes[route]
	if !ok {
		codes = new(statusCounts)
		m.routes[route] = codes
	}
	m.mu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = TraceContext{Trace: NewTraceID()}
		}
		ctx := ContextWithTrace(r.Context(), tc)

		sp, ctx := Default().StartSpan(ctx, PIDServe, LaneFor(tc.Trace), "serve", "request")
		if sp.ID() != 0 {
			sp = sp.Str("route", route).Str("method", r.Method)
			// Children should parent under the request span, and the
			// response should advertise it as the remote parent.
			tc = sp.TraceCtx()
		} else if tc.Parent == 0 {
			// Untraced and minted: no request span exists, but a valid
			// traceparent names a non-zero parent.
			tc.Parent = newSpanID()
		}
		w.Header().Set("X-Trace-Id", tc.Trace.String())
		w.Header().Set("traceparent", tc.Traceparent())

		m.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start).Seconds()
		m.inFlight.Add(-1)
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		sp.Int("code", int64(code)).End()
		hist.ObserveTrace(elapsed, tc.Trace)
		if uint(code) < uint(len(codes)) {
			codes[code].Add(1)
		}
		if code >= 500 {
			if f := onServerError.Load(); f != nil {
				(*f)(route, code, tc)
			}
		}
	})
}

// GatherMetrics implements Gatherer with the counter and gauge
// families (the latency family renders from the registry's HistVec).
// Routes and codes are emitted in sorted order so the exposition is
// deterministic.
func (m *HTTPMetrics) GatherMetrics() []Family {
	m.mu.Lock()
	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	counts := make([]*statusCounts, len(routes))
	for i, r := range routes {
		counts[i] = m.routes[r]
	}
	m.mu.Unlock()

	reqs := Family{Name: "http_requests_total", Help: "HTTP requests served, by route and status code.", Type: "counter"}
	for i, route := range routes {
		for c := range counts[i] {
			if n := counts[i][c].Load(); n > 0 {
				reqs.Points = append(reqs.Points, Point{
					Labels: []Label{{Key: "route", Value: route}, {Key: "code", Value: strconv.Itoa(c)}},
					Value:  float64(n),
				})
			}
		}
	}
	return []Family{
		{Name: "http_in_flight_requests", Help: "Requests currently being served.", Type: "gauge",
			Points: []Point{{Value: float64(m.inFlight.Load())}}},
		reqs,
	}
}

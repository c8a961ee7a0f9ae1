// Package serve exposes the study engine as an HTTP service — the
// study-as-a-service daemon behind cmd/pbld and `pblstudy serve`.
//
// Endpoints:
//
//	POST /v1/run        one study         {seed, students, uncalibrated}
//	POST /v1/sweep      a seed sweep      {start, seeds, workers}
//	POST /v1/cohort     a mega-cohort scenario sweep  {students, seed, batch, workers}
//	GET  /v1/spring2019 the planned revision's projection  ?n=&seed=
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining)
//	GET  /metrics       Prometheus text exposition (obs registry)
//	GET  /debug/trace/{id}  one request's span tree
//	GET  /debug/flightrec   flight-recorder bundles (?last=1 = last postmortem)
//	GET  /debug/sched       work-stealing scheduler introspection
//	GET  /debug/prof        continuous-profiling ring (?seq=N downloads)
//	GET  /debug/tsdb        metrics history range queries (rate/increase/avg/quantile)
//	GET  /debug/slo         SLO burn rates, firing windows, error budgets
//
// The three POST routes also answer GET, with the body's fields as
// query keys (?seed=7); both spellings decode through decodeParams.
//
// Two scaling layers sit between the handlers and the engine. A
// content-addressed result cache keys every response by the SHA-256 of
// its normalized request (execution knobs like worker count excluded —
// determinism means they cannot change bytes), with singleflight
// coalescing so N concurrent identical requests compute once, and an
// optional persistent tier below the LRU (-cache-dir; internal/store)
// so the warm set survives restarts. An admission layer feeds
// computations through the bounded queue of one sched.Runtime, whose
// workers also run each request's engine, sheds overload with 429 +
// Retry-After, bounds each request's wait by its Request-Timeout
// header, and drains gracefully on SIGTERM.
//
// The fault-injection subsystem extends through the service: the
// admission decision, the backend compute, and the cache read are
// injectable sites (queue-full, slow-backend, cache-corruption), and
// the engine's retry layer absorbs the runtime fault mix below them, so
// `pblstudy chaos -serve` can assert that every response stays
// byte-identical under the full mix.
//
// Open (daemon.go) assembles the daemon pbld runs: the Server plus the
// tracer, profiler, flight recorder, an embedded TSDB, the SLO and
// runtime rules over it, one obs.Clock, and the persistent tier. A rule
// trip produces a postmortem bundle embedding the TSDB window.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
	"pblparallel/internal/sched"
	"pblparallel/internal/store"
)

// init wires the obs middleware's 5xx hook to the flight recorder: any
// instrumented handler answering 5xx triggers a postmortem bundle
// stamped with the offending trace ID (no-op while no recorder is
// installed; rate-limited by the recorder's MinGap).
func init() {
	obs.OnServerError(func(route string, code int, tc obs.TraceContext) {
		flightrec.Active().Trigger(fmt.Sprintf("http-%d-%s", code, route), tc.Trace)
	})
}

// Config tunes a Server. The zero value is usable: every field has a
// serving default.
type Config struct {
	// Workers sizes the scheduler that admits requests and runs each
	// request's engine; 0 selects runtime.NumCPU(). Never part of a
	// cache key.
	Workers int
	// Queue is the admission queue depth in front of the pool; waiting
	// requests beyond it are shed with 429. Defaults to 32.
	Queue int
	// CacheEntries bounds the result cache; defaults to 1024.
	CacheEntries int
	// DefaultTimeout bounds each request's wait (and each computation);
	// the Request-Timeout header may shorten but never extend it.
	// Defaults to 120s.
	DefaultTimeout time.Duration
	// DrainTimeout bounds the SIGTERM graceful drain. Defaults to 30s.
	DrainTimeout time.Duration
	// MaxSweepSeeds rejects larger /v1/sweep requests. Defaults to 1000.
	MaxSweepSeeds int
	// MaxCohortStudents rejects larger /v1/cohort requests. Defaults to
	// 20 million — far past the 10M acceptance run; the streaming
	// reduction's memory does not grow with it.
	MaxCohortStudents int
	// Retries is the engine retry budget for transient faults under
	// each request. Defaults to 3.
	Retries int
	// Injector arms the service-layer fault sites and is forwarded to
	// every computation's context so the runtime fault mix fires too.
	// Nil disables injection.
	Injector *fault.Injector
	// Registry receives the server's metrics; nil selects the process
	// registry (obs.Metrics()).
	Registry *obs.Registry
	// Set by Open (daemon.go), or directly by this package's tests.
	// disk is the persistent tier under the memory cache: misses probe
	// it, computed responses and evictions spill into it, and the
	// server owns it (Close closes it). db and rules back /debug/tsdb
	// and /debug/slo; they are borrowed, and nil answers 503.
	disk  *store.Store
	db    *tsdb.DB
	rules *slo.Evaluator
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		// sched.WithWorkers clamps n <= 0 to one worker, not NumCPU.
		c.Workers = runtime.NumCPU()
	}
	if c.Queue <= 0 {
		c.Queue = 32
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxSweepSeeds <= 0 {
		c.MaxSweepSeeds = 1000
	}
	if c.MaxCohortStudents <= 0 {
		c.MaxCohortStudents = 20_000_000
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.Registry == nil {
		c.Registry = obs.Metrics()
	}
	return c
}

// Server is the study-as-a-service daemon. Construct with New; the
// handler is available immediately, Serve runs the accept loop with
// graceful drain, Close drains without a listener (tests).
type Server struct {
	cfg   Config
	rt    *sched.Runtime // admission queue and workers, shared with every request engine
	cache *Cache
	httpm *obs.HTTPMetrics
	mux   *http.ServeMux

	ready    atomic.Bool
	draining atomic.Bool
	// The hot per-request atomics are cache-line padded: every compute
	// CASes ewmaNs and every shed bumps the window counters, and
	// adjacent-line false sharing between them measurably hurts under
	// load (see BenchmarkCounterInc in internal/sched).
	ewmaNs sched.PaddedInt64 // smoothed compute time, Retry-After's basis

	// Shed-burst detection: sheds within the current one-second window.
	// A burst (>= shedBurstN in one window) triggers a flight-recorder
	// postmortem — the moment an operator most wants the black box.
	shedWinSec   sched.PaddedInt64
	shedWinCount sched.PaddedInt64

	admitMu  sync.Mutex
	admitSeq map[string]uint64 // per-key admission attempts (fault keying, armed only)

	closeOnce sync.Once

	shed      *obs.Counter
	queueWait *obs.HistVec
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		rt:    sched.New(sched.WithWorkers(cfg.Workers), sched.WithQueueDepth(cfg.Queue)),
		cache: NewCache(cfg.CacheEntries, cfg.Injector),
		httpm: obs.NewHTTPMetrics(cfg.Registry),
		mux:   http.NewServeMux(),
	}
	if cfg.Injector != nil {
		s.admitSeq = make(map[string]uint64)
	}
	s.cache.disk = cfg.disk
	reg := cfg.Registry
	s.shed = reg.Counter("serve_shed_total", "Requests shed with 429 at admission.")
	s.queueWait = reg.HistogramVec("serve_queue_wait_seconds",
		"Admission queue wait from SubmitWait to job start, by route.", "route")
	reg.RegisterGatherer(obs.GathererFunc(s.gather))
	// The scheduler exposes its work-stealing internals (parked flags,
	// park ledgers, grain claims) through the same registry.
	reg.RegisterGatherer(obs.SchedGatherer(s.rt))

	// Every endpoint — v1, health, exposition, and the whole /debug/*
	// family — registers through the one routes() table, so middleware
	// wiring (metrics, tracing, trace-ID propagation) is uniform by
	// construction rather than by per-endpoint hand-wiring.
	for _, e := range s.routes() {
		s.mux.Handle(e.path, s.httpm.Middleware(e.path, e.handler))
	}

	s.ready.Store(true)
	return s
}

// route is one row of the server's endpoint table.
type route struct {
	path    string
	handler http.HandlerFunc
}

// routes is the single registration point for every endpoint.
func (s *Server) routes() []route {
	reg := s.cfg.Registry
	return []route{
		{"/v1/run", s.handleRun},
		{"/v1/sweep", s.handleSweep},
		{"/v1/cohort", s.handleCohort},
		{"/v1/spring2019", s.handleSpring2019},
		{"/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}},
		{"/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if s.ready.Load() && !s.draining.Load() {
				fmt.Fprintln(w, "ready")
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		}},
		{"/metrics", func(w http.ResponseWriter, r *http.Request) {
			// Content negotiation: an OpenMetrics scraper gets the exemplared
			// exposition (bucket → trace links), everyone else the classic
			// Prometheus text format.
			if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
				w.Header().Set("Content-Type", obs.OpenMetricsContentType)
				_ = reg.WriteOpenMetrics(w)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = reg.WritePrometheus(w)
		}},
		{"/debug/trace/{id}", s.handleDebugTrace},
		{"/debug/flightrec", s.handleDebugFlightrec},
		{"/debug/sched", s.handleDebugSched},
		{"/debug/prof", s.handleDebugProf},
		{"/debug/tsdb", s.handleDebugTSDB},
		{"/debug/slo", s.handleDebugSLO},
	}
}

// gather surfaces admission state and the cache ledger in the metrics
// exposition. The serve_cache_* families are read from Cache.Stats at
// scrape time, so /metrics and Stats can never disagree.
func (s *Server) gather() []obs.Family {
	ps, cs := s.rt.Introspect(), s.cache.Stats()
	family := func(typ, name, help string, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: typ,
			Points: []obs.Point{{Value: v}}}
	}
	return []obs.Family{
		family("gauge", "serve_queue_depth", "Jobs waiting for a pool worker.", float64(ps.Queued)),
		family("gauge", "serve_in_flight_jobs", "Jobs executing on pool workers.", float64(ps.InFlight)),
		family("gauge", "serve_queue_capacity", "Admission queue bound.", float64(ps.QueueCap)),
		family("counter", "serve_jobs_completed_total", "Jobs pool workers have finished.", float64(ps.Completed)),
		family("counter", "serve_cache_hits_total", "Responses served from the result cache.", float64(cs.Hits)),
		family("counter", "serve_cache_misses_total", "Responses computed and stored.", float64(cs.Misses)),
		family("counter", "serve_cache_coalesced_total", "Requests coalesced onto an identical in-flight computation.", float64(cs.Coalesced)),
		family("counter", "serve_cache_corruption_healed_total", "Cache integrity failures healed by recompute.", float64(cs.CorruptRecovered)),
		family("gauge", "serve_cache_bytes", "Response body bytes held in the memory cache tier.", float64(cs.Bytes)),
	}
}

// Handler returns the routed, instrumented handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats bundles the server's ledgers for tests and the chaos report.
type Stats struct {
	Pool  sched.Snapshot
	Cache CacheStats
	Store store.StatsSnapshot
	Shed  int64
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	st := Stats{Pool: s.rt.Introspect(), Cache: s.cache.Stats(), Shed: s.shed.Value()}
	if s.cfg.disk != nil {
		st.Store = s.cfg.disk.Stats()
	}
	return st
}

// readTimeout bounds a whole request read, body included, so a client
// dripping its body cannot hold a handler. No write timeout: DefaultTimeout
// bounds computation, and a long /v1/cohort response must not be cut off.
const readTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

// Serve accepts on ln until ctx is canceled, then drains: readiness
// flips to 503, in-flight and queued requests finish (bounded by
// DrainTimeout), and the pool shuts down. The caller owns ln's address
// choice; Serve closes it.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	s.Close()
	return err
}

// Close drains the admission pool, then the persistent tier's write
// queue — every response accepted before the drain is durable when
// Close returns. Idempotent; used directly by tests and by Serve
// during shutdown.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.rt.Close()
		if s.cfg.disk != nil {
			s.cfg.disk.Close()
		}
	})
}

// httpError is a JSON error response.
type httpError struct {
	Error string `json:"error"`
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a JSON reply with the given status; a value
// that cannot be encoded is answered with a 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// encodeJSON is the one JSON encoding of every reply, cached or not:
// two-space indent and a trailing newline, the bytes the golden files
// pin. Pooled: MarshalIndent left 2.5× each body as garbage per call.
func encodeJSON(v any) ([]byte, error) {
	e := jsonEncoders.Get().(*jsonEncoder)
	defer jsonEncoders.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf.Bytes()), nil
}

type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// requestDeadline resolves the request's wait bound: the
// Request-Timeout header in (fractional) seconds, clamped to the
// server's DefaultTimeout. The comparison is in seconds, before any
// conversion: a header past time.Duration's range (inf, 1e300) would
// overflow to a negative deadline, and it can only shorten the bound.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	d := s.cfg.DefaultTimeout
	if h := r.Header.Get("Request-Timeout"); h != "" {
		secs, err := strconv.ParseFloat(h, 64)
		if err != nil || secs <= 0 || math.IsNaN(secs) {
			return 0, fmt.Errorf("invalid Request-Timeout %q", h)
		}
		if secs < d.Seconds() {
			d = time.Duration(secs * float64(time.Second))
		}
	}
	return d, nil
}

// retryAfter estimates how long a shed client should back off: the
// smoothed compute time scaled by the backlog per worker, clamped to
// [1s, 60s].
func (s *Server) retryAfter() int {
	est := time.Duration(s.ewmaNs.Load())
	if est <= 0 {
		est = time.Second
	}
	ps := s.rt.Introspect()
	backlog := float64(ps.Queued+ps.InFlight+1) / float64(ps.Workers)
	secs := int(math.Ceil(est.Seconds() * backlog))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// observeCompute folds one computation's wall time into the EWMA.
func (s *Server) observeCompute(d time.Duration) {
	const alpha = 0.2
	for {
		old := s.ewmaNs.Load()
		next := int64(float64(old)*(1-alpha) + float64(d)*alpha)
		if old == 0 {
			next = int64(d)
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// admissionAttempt counts admissions per key for fault keying; only
// tracked while an injector is armed, so the map cannot grow in
// production.
func (s *Server) admissionAttempt(k Key) uint64 {
	if s.admitSeq == nil {
		return 0
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	n := s.admitSeq[k.Hex()]
	s.admitSeq[k.Hex()] = n + 1
	return n
}

// errShed marks an admission rejection (real or injected).
var errShed = errors.New("serve: admission queue full")

// respond executes the cached/coalesced/computed request lifecycle for
// one response body and writes it. build runs on a pool worker under
// the server's compute deadline and must be a pure function of the
// request's normalized parameters.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, k Key, build func(ctx context.Context) (any, error)) {
	wait, err := s.requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()

	csp, ctx := obs.Default().StartSpan(ctx, obs.PIDServe,
		obs.LaneFor(obs.TraceIDFromContext(ctx)), "serve", "cache")
	body, status, err := s.cache.Do(ctx, k, func() ([]byte, error) {
		// The URL path is the registered route pattern for every
		// compute route, so it doubles as the queue-wait label.
		return s.compute(ctx, r.URL.Path, k, build)
	})
	csp.Str("status", string(status)).Hex32("key", k.prefix()).End()
	if err != nil {
		switch {
		case errors.Is(err, errShed):
			s.shed.Inc()
			s.noteShed(obs.TraceIDFromContext(ctx))
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			writeError(w, http.StatusTooManyRequests, "admission queue full; retry after the advertised backoff")
		case errors.Is(err, sched.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "request canceled")
		case errors.As(err, new(*core.ConfigError)):
			writeError(w, http.StatusBadRequest, "%v", err)
		default:
			// Any other build error is the server's own failure
			// (exhausted retries, a marshal error) and counts against
			// the availability objective.
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(status))
	w.Header().Set("X-Study-Key", k.Hex())
	w.Write(body)
}

// compute runs build on a pool worker: the admission step of every
// cache miss. The waiting is bounded by the request ctx; the
// computation itself gets a fresh deadline from DefaultTimeout so a
// canceled waiter cannot poison coalesced followers.
func (s *Server) compute(ctx context.Context, route string, k Key, build func(ctx context.Context) (any, error)) ([]byte, error) {
	inj := s.cfg.Injector
	trace := obs.TraceIDFromContext(ctx)
	inj = inj.WithTrace(trace)
	if f, ok := inj.Hit(fault.SiteServeQueue, fault.Mix2(k.addr.Word(), s.admissionAttempt(k))); ok && f.Kind == fault.QueueFull {
		// Injected shed: the client's retry lands on a fresh admission
		// attempt and a fresh decision, so recovery is the client's
		// backoff — deterministically keyed, like every fault.
		inj.MarkRetry()
		return nil, errShed
	}
	// The admit span covers the queue wait: opened before SubmitWait,
	// ended the moment a pool worker picks the job up.
	asp, ctx := obs.Default().StartSpan(ctx, obs.PIDServe, obs.LaneFor(trace), "serve", "admit")
	tc, hasTC := obs.TraceFromContext(ctx)
	admitAt := time.Now()
	// body and jobErr are written by the job and read only after
	// SubmitWait returns nil, which orders the two.
	var body []byte
	var jobErr error
	job := func() {
		asp.End()
		// Run-queue latency: how long the job sat between SubmitWait and
		// a pool worker picking it up, exemplared with the request trace.
		s.queueWait.With(route).ObserveTrace(time.Since(admitAt).Seconds(), trace)
		jctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		defer cancel()
		if hasTC {
			// The computation outlives the waiter's ctx (a canceled waiter
			// must not poison coalesced followers), so the correlation is
			// copied onto the fresh context rather than inherited.
			jctx = obs.ContextWithTrace(jctx, tc)
		}
		if inj != nil {
			jctx = fault.NewContext(jctx, inj)
		}
		if f, ok := inj.Hit(fault.SiteServeBackend, k.addr.Word()); ok && f.Kind == fault.BackendSlow {
			// Latency only — the fault mix may slow a response, never
			// change its bytes.
			time.Sleep(f.Duration())
			inj.MarkRecovered(1)
		}
		start := time.Now()
		v, err := build(jctx)
		if err != nil {
			jobErr = err
			return
		}
		s.observeCompute(time.Since(start))
		body, jobErr = encodeJSON(v)
	}
	switch err := s.rt.SubmitWait(ctx, job); {
	case err == nil:
		return body, jobErr
	case errors.Is(err, sched.ErrQueueFull):
		asp.Str("outcome", "shed").End()
		return nil, errShed
	case errors.Is(err, sched.ErrClosed):
		asp.Str("outcome", "closed").End()
		return nil, err
	default:
		return nil, err // ctx ended first; the job still runs and ends asp
	}
}

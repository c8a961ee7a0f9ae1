package obs

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// CLI is the shared observability flag surface of the commands:
// -trace, -metrics-out, and -pprof behave identically in pblstudy,
// patternlet, and drugdesign.
type CLI struct {
	TracePath   string
	MetricsPath string
	PprofAddr   string
}

// BindFlags registers the observability flags on fs and returns the
// destination struct; call Start after fs.Parse.
func BindFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.TracePath, "trace", "", "write a Chrome trace_event JSON file (open in ui.perfetto.dev) on exit")
	fs.StringVar(&c.MetricsPath, "metrics-out", "", "write Prometheus text-exposition metrics to this file on exit")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof, /metrics, and /debug/vars on this address (e.g. localhost:6060)")
	return c
}

// Session is one activated observability configuration; Close flushes
// the trace and metrics files and stops the pprof server. Diagnostics
// (where files were written) go to stderr so stdout stays
// machine-parseable under -json.
type Session struct {
	cli    *CLI
	tracer *Tracer
	ln     net.Listener
}

// pprofReadTimeout bounds a whole request read, body included, so a client
// dripping a body cannot hold a connection. No write timeout:
// /debug/pprof/profile streams for as long as it is asked to.
const pprofReadTimeout, pprofIdleTimeout = 10 * time.Second, 2 * time.Minute

// Start activates the configuration: installs the process tracer when
// -trace is set, and binds the pprof/metrics HTTP server when -pprof is
// set (listening synchronously so address errors surface immediately).
func (c *CLI) Start() (*Session, error) {
	s := &Session{cli: c}
	if c.TracePath != "" {
		s.tracer = NewTracer(DefaultCapacity)
		Metrics().RegisterGatherer(s.tracer)
		Install(s.tracer)
	}
	if c.PprofAddr != "" {
		Metrics().PublishExpvar("pblparallel")
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = Metrics().WritePrometheus(w)
		})
		mux.Handle("/debug/vars", expvar.Handler())
		ln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("obs: pprof listen: %w", err)
		}
		s.ln = ln
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: pprofReadTimeout, IdleTimeout: pprofIdleTimeout}
		go func() { _ = srv.Serve(ln) }()
		Log().With("obs").Info(context.Background(), "pprof/metrics server listening",
			"addr", fmt.Sprintf("http://%s", ln.Addr()), "paths", "/debug/pprof /metrics /debug/vars")
	}
	return s, nil
}

// PprofAddr reports the bound address of the session's pprof/metrics
// server ("" when -pprof was not set), for tests and log lines that
// need the resolved port of a ":0" listen.
func (s *Session) PprofAddr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close uninstalls the tracer, writes the trace and metrics files, and
// stops the HTTP server. Safe on a nil session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	if s.tracer != nil {
		Install(nil)
		f, err := os.Create(s.cli.TracePath)
		if err != nil {
			return fmt.Errorf("obs: trace file: %w", err)
		}
		if err := s.tracer.Export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		Log().With("obs").Info(context.Background(), "trace written (open in ui.perfetto.dev)", "path", s.cli.TracePath)
	}
	if s.cli.MetricsPath != "" {
		f, err := os.Create(s.cli.MetricsPath)
		if err != nil {
			return fmt.Errorf("obs: metrics file: %w", err)
		}
		if err := Metrics().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		Log().With("obs").Info(context.Background(), "metrics written", "path", s.cli.MetricsPath)
	}
	return nil
}

// GatherMetrics exposes the tracer's own health as metric families, so
// a -metrics-out file always reveals whether the trace ring overflowed.
func (t *Tracer) GatherMetrics() []Family {
	recs := int64(0)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		recs += int64(min64(sh.next, uint64(len(sh.buf))))
		sh.mu.Unlock()
	}
	return []Family{
		{Name: "obs_trace_buffered_records", Help: "Trace records currently buffered.", Type: "gauge",
			Points: []Point{{Value: float64(recs)}}},
		{Name: "obs_trace_evicted_records_total", Help: "Trace records overwritten by ring wrap.", Type: "counter",
			Points: []Point{{Value: float64(t.Evicted())}}},
		{Name: "obs_trace_intern_overflow_total", Help: "Span strings recorded as (overflow) because the tracer intern table was full.", Type: "counter",
			Points: []Point{{Value: float64(t.names.overflow.Load())}}},
	}
}

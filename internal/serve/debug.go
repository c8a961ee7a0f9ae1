package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
)

// shedBurstN is the per-second shed count that triggers a flight
// recorder postmortem: one shed is normal backpressure, a burst is an
// incident.
const shedBurstN = 10

// noteShed records one admission shed in the flight recorder and, on a
// burst (shedBurstN sheds landing in the same wall-clock second),
// triggers a postmortem dump. The window tracking is intentionally
// approximate — two racing goroutines may both reset the window at a
// second boundary and undercount, which only delays the trigger.
func (s *Server) noteShed(trace obs.TraceID) {
	flightrec.Active().Event(flightrec.KindShed, "serve.queue", 0, trace)
	now := time.Now().Unix()
	if s.shedWinSec.Load() != now {
		s.shedWinSec.Store(now)
		s.shedWinCount.Store(0)
	}
	if s.shedWinCount.Add(1) == shedBurstN {
		flightrec.Active().Trigger("shed-burst", trace)
	}
}

// handleDebugTrace serves GET /debug/trace/{id}: the complete span tree
// of one request's trace as JSON, assembled from the installed tracer's
// ring. 503 while no tracer is installed, 400 on a malformed ID, 404
// when the ring holds no spans for it (never recorded, or evicted).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := obs.Default()
	if tr == nil {
		writeError(w, http.StatusServiceUnavailable, "tracing disabled; start the server with -trace")
		return
	}
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, "malformed trace id %q (want 32 hex digits)", r.PathValue("id"))
		return
	}
	tree := obs.BuildTraceTree(id, tr.TraceRecords(id))
	if tree == nil {
		writeError(w, http.StatusNotFound, "no spans recorded for trace %s", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}

// handleDebugFlightrec serves GET /debug/flightrec: an on-demand flight
// recorder bundle (never rate-limited — an operator asking gets an
// answer). ?last=1 returns the most recent triggered postmortem
// instead, for fetching the bundle a 5xx or shed burst produced.
func (s *Server) handleDebugFlightrec(w http.ResponseWriter, r *http.Request) {
	rec := flightrec.Active()
	if rec == nil {
		writeError(w, http.StatusServiceUnavailable, "flight recorder disabled; start the server with -flightrec")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("last") != "" {
		b := rec.LastBundle()
		if b == nil {
			writeError(w, http.StatusNotFound, "no postmortem has been triggered yet")
			return
		}
		w.Write(b)
		return
	}
	if err := rec.WriteBundle(w, "on-demand", obs.TraceIDFromContext(r.Context())); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleDebugSched serves GET /debug/sched: a JSON introspection
// snapshot of the pool's work-stealing scheduler — per-worker deque
// depths, steal/spawn/inline ledgers, park counts, grain claims, and
// the runtime-wide totals. Always available: the snapshot reads the
// same padded atomics the hot paths write, so serving it never
// perturbs them.
func (s *Server) handleDebugSched(w http.ResponseWriter, _ *http.Request) {
	snap := s.rt.Introspect()
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}

// profIndexEntry is one row of the /debug/prof listing: a snapshot's
// identity and size, without its data.
type profIndexEntry struct {
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	At     time.Time `json:"at"`
	Reason string    `json:"reason"`
	Bytes  int       `json:"bytes"`
}

// handleDebugProf serves GET /debug/prof: the continuous-profiling
// ring. Without parameters it lists the buffered snapshots newest
// last; ?seq=N downloads one snapshot as a .pb.gz ready for
// `go tool pprof`. 503 while no profiler is installed.
func (s *Server) handleDebugProf(w http.ResponseWriter, r *http.Request) {
	p := prof.Active()
	if p == nil {
		writeError(w, http.StatusServiceUnavailable, "continuous profiler disabled; start the server with -prof")
		return
	}
	if q := r.URL.Query().Get("seq"); q != "" {
		seq, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed seq %q", q)
			return
		}
		snap, ok := p.Get(seq)
		if !ok {
			writeError(w, http.StatusNotFound, "no snapshot with seq %d in the ring (evicted or never captured)", seq)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=prof-%06d-%s.pb.gz", snap.Seq, snap.Kind))
		w.Write(snap.Data)
		return
	}
	snaps := p.Snapshots()
	index := make([]profIndexEntry, 0, len(snaps))
	for _, sn := range snaps {
		index = append(index, profIndexEntry{
			Seq: sn.Seq, Kind: sn.Kind, At: sn.At, Reason: sn.Reason, Bytes: len(sn.Data),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(struct {
		Captures  int64            `json:"captures_total"`
		Snapshots []profIndexEntry `json:"snapshots"`
	}{Captures: p.Captures(), Snapshots: index}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}

// tsdbResponse is the /debug/tsdb range-query document.
type tsdbResponse struct {
	Series  string            `json:"series"`
	Fn      string            `json:"fn"`
	FromMS  int64             `json:"from_ms"`
	ToMS    int64             `json:"to_ms"`
	Results []tsdb.SeriesData `json:"results"`
}

// handleDebugTSDB serves GET /debug/tsdb: range queries over the
// embedded time-series store. Without parameters it lists the tracked
// series plus the store's cadence and retention; with
// ?series=<family>&range=<dur>&fn=<raw|rate|increase|avg|quantile>
// it evaluates the function over every matching series (quantile also
// takes ?q=, default 0.99). 503 while the store is disabled.
func (s *Server) handleDebugTSDB(w http.ResponseWriter, r *http.Request) {
	db := s.cfg.db
	if db == nil {
		writeError(w, http.StatusServiceUnavailable, "time-series store disabled; start the server with -tsdb")
		return
	}
	q := r.URL.Query()
	series := q.Get("series")
	if series == "" {
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.MarshalIndent(struct {
			IntervalMS  int64    `json:"interval_ms"`
			RetentionMS int64    `json:"retention_ms"`
			Series      []string `json:"series"`
		}{db.Interval().Milliseconds(), db.Retention().Milliseconds(), db.Keys()}, "", "  ")
		w.Write(append(b, '\n'))
		return
	}
	rng := 5 * time.Minute
	if rs := q.Get("range"); rs != "" {
		var err error
		if rng, err = time.ParseDuration(rs); err != nil || rng <= 0 {
			writeError(w, http.StatusBadRequest, "malformed range %q (want a positive Go duration like 5m)", rs)
			return
		}
	}
	to := time.Now().UnixMilli()
	from := to - rng.Milliseconds()
	fn := q.Get("fn")
	resp := tsdbResponse{Series: series, Fn: fn, FromMS: from, ToMS: to}
	switch fn {
	case "", "raw", "rate", "increase", "avg":
		if resp.Fn == "" {
			resp.Fn = "raw"
		}
		resp.Results = db.RangeQuery(series, fn, from, to)
	case "quantile":
		quant := 0.99
		if qs := q.Get("q"); qs != "" {
			var err error
			if quant, err = strconv.ParseFloat(qs, 64); err != nil || !(quant >= 0 && quant <= 1) {
				writeError(w, http.StatusBadRequest, "malformed quantile %q (want 0..1)", qs)
				return
			}
		}
		resp.Results = db.QuantileOverTime(series, quant, from, to)
	default:
		writeError(w, http.StatusBadRequest, "unknown fn %q (want raw, rate, increase, avg, or quantile)", fn)
		return
	}
	if resp.Results == nil {
		resp.Results = []tsdb.SeriesData{}
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}

// handleDebugSLO serves GET /debug/slo: every objective's burn rates,
// firing states, and remaining error budget. The response is the most
// recent clock-driven evaluation; ?eval=1 forces a synchronous one (the
// first request after startup also evaluates, so the endpoint never
// answers empty). 503 while the SLO engine is disabled.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if s.cfg.rules == nil {
		writeError(w, http.StatusServiceUnavailable, "SLO engine disabled; start the server with -tsdb and -slo")
		return
	}
	statuses := s.cfg.rules.Statuses()
	if statuses == nil || r.URL.Query().Get("eval") != "" {
		statuses = s.cfg.rules.Eval(time.Now())
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(struct {
		At         time.Time    `json:"at"`
		Objectives []slo.Status `json:"objectives"`
	}{time.Now(), statuses}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/slo"
	"pblparallel/internal/obs/tsdb"
)

// newTSDBServer opens the daemon with its TSDB and rule engine on a
// private registry and leaves its clock stopped: the tests drive
// sampling and evaluation by hand (SampleOnce, Eval) so they control
// exactly when history accrues.
func newTSDBServer(t testing.TB, cfg Config) (*Server, *tsdb.DB, *httptest.Server) {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	d, err := Open(Options{Config: cfg, TSDB: true, SLO: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		d.Close()
	})
	return d.Server, d.cfg.db, ts
}

// TestDebugTSDBRateQuery is the tentpole acceptance path: real traffic
// lands in http_requests_total, the store samples it, and GET
// /debug/tsdb answers a rate() range query over the window.
func TestDebugTSDBRateQuery(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{Workers: 1})

	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	if r, _ := get(t, ts, ts.URL+"/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	db.SampleOnce(t0)
	for i := 0; i < 3; i++ {
		get(t, ts, ts.URL+"/healthz")
	}
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts, ts.URL+"/debug/tsdb?series=http_requests_total&range=5m&fn=rate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range query status %d: %s", resp.StatusCode, body)
	}
	var out tsdbResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("range query response not JSON: %v", err)
	}
	if out.Fn != "rate" || out.Series != "http_requests_total" {
		t.Fatalf("response echoes fn=%q series=%q", out.Fn, out.Series)
	}
	found := false
	for _, sd := range out.Results {
		if !strings.Contains(sd.Series, `route="/healthz"`) {
			continue
		}
		found = true
		if len(sd.Samples) != 2 {
			t.Fatalf("healthz series carries %d samples, want 2", len(sd.Samples))
		}
		if sd.Value == nil || *sd.Value <= 0 {
			t.Fatalf("healthz rate = %v, want > 0", sd.Value)
		}
		// 3 requests across a 2ms observed span: 1500/s.
		if got := *sd.Value; got != 1500 {
			t.Fatalf("healthz rate = %g req/s, want 1500", got)
		}
	}
	if !found {
		t.Fatalf("no /healthz series in results: %s", body)
	}

	// Without ?series= the endpoint lists the store's contents.
	resp, body = get(t, ts, ts.URL+"/debug/tsdb")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d: %s", resp.StatusCode, body)
	}
	var index struct {
		IntervalMS  int64    `json:"interval_ms"`
		RetentionMS int64    `json:"retention_ms"`
		Series      []string `json:"series"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatalf("index not JSON: %v", err)
	}
	if index.IntervalMS != 5000 || index.RetentionMS != 3_600_000 {
		t.Fatalf("index cadence %dms/%dms, want defaults 5000/3600000", index.IntervalMS, index.RetentionMS)
	}
	if len(index.Series) == 0 {
		t.Fatal("index lists no series after sampling")
	}

	// Malformed parameters answer 400, not 500.
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&range=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad range status %d, want 400", r.StatusCode)
	}
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&fn=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fn status %d, want 400", r.StatusCode)
	}
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb?series=x&fn=quantile&q=7"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad quantile status %d, want 400", r.StatusCode)
	}
}

// TestDebugTSDBQuantile: the latency histogram answers
// quantile-over-time with a value inside the observed bucket range, and
// a q outside 0..1, NaN included, is a 400.
func TestDebugTSDBQuantile(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{Workers: 1})
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	db.SampleOnce(t0)
	for i := 0; i < 8; i++ {
		get(t, ts, ts.URL+"/healthz")
	}
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts,
		ts.URL+"/debug/tsdb?series=http_request_duration_seconds&fn=quantile&q=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile status %d: %s", resp.StatusCode, body)
	}
	var out tsdbResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("quantile response not JSON: %v", err)
	}
	found := false
	for _, sd := range out.Results {
		if !strings.Contains(sd.Series, `route="/healthz"`) {
			continue
		}
		found = true
		if sd.Value == nil || *sd.Value < 0 || *sd.Value > 10 {
			t.Fatalf("healthz p50 = %v, want a finite latency", sd.Value)
		}
	}
	if !found {
		t.Fatalf("no /healthz quantile in results: %s", body)
	}

	// NaN fails both range comparisons, so it must be rejected by name:
	// read as a quantile it would put a non-finite value in the JSON.
	for _, q := range []string{"NaN", "-0.1", "1.5", "Inf"} {
		if r, body := get(t, ts, ts.URL+"/debug/tsdb?series=http_request_duration_seconds&fn=quantile&q="+q); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("q=%s status %d, want 400: %s", q, r.StatusCode, body)
		}
	}
}

// TestDebugTSDBDisabled: without an attached store the endpoint says
// so instead of pretending.
func TestDebugTSDBDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if r, _ := get(t, ts, ts.URL+"/debug/tsdb"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", r.StatusCode)
	}
	if r, _ := get(t, ts, ts.URL+"/debug/slo"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slo status %d, want 503", r.StatusCode)
	}
}

// installRecorder installs a flight recorder writing every bundle to a
// temporary directory, with no rate limit between triggers. dumps reads
// the recorder's flightrec_dumps_total.
func installRecorder(t *testing.T, db *tsdb.DB) (dir string, dumps func() float64) {
	t.Helper()
	dir = t.TempDir()
	reg := obs.NewRegistry()
	rec := flightrec.New(flightrec.Config{Registry: reg, MinGap: time.Nanosecond, Dir: dir})
	rec.AttachTSDB(db)
	flightrec.Install(rec)
	t.Cleanup(func() { flightrec.Install(nil) })
	dumps = func() float64 {
		for _, f := range reg.Gather() {
			if f.Name == "flightrec_dumps_total" {
				return f.Points[0].Value
			}
		}
		return 0
	}
	return dir, dumps
}

// bundleFor reads the one postmortem bundle in dir whose reason starts
// with prefix (bundle files are named after their sanitized reason).
func bundleFor(t *testing.T, dir, prefix string) flightrec.Bundle {
	t.Helper()
	want := "-" + strings.Map(func(r rune) rune { // flightrec's file-name sanitizing
		if r == '-' || r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			return r
		}
		return '_'
	}, prefix)
	paths, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	var found []string
	for _, p := range paths {
		if strings.Contains(filepath.Base(p), want) {
			found = append(found, p)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d bundles for %q in %v, want 1", len(found), prefix, paths)
	}
	raw, err := os.ReadFile(found[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("postmortem bundle not valid JSON: %v", err)
	}
	if !strings.HasPrefix(b.Reason, prefix) {
		t.Fatalf("bundle reason %q, want prefix %q", b.Reason, prefix)
	}
	return b
}

// embeds reports whether b's TSDB window holds samples of a series
// whose key starts with series and contains every label fragment.
func embeds(b flightrec.Bundle, series string, labels ...string) bool {
	for _, sd := range b.TSDB {
		if !strings.HasPrefix(sd.Series, series) || len(sd.Samples) == 0 {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(sd.Series, l)
		}
		if ok {
			return true
		}
	}
	return false
}

// TestDebugSLOEndpoint: an armed engine reports every objective's burn
// windows and budget over HTTP.
func TestDebugSLOEndpoint(t *testing.T) {
	_, db, ts := newTSDBServer(t, Config{Workers: 1})
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside [now-range, now]
	get(t, ts, ts.URL+"/healthz")
	db.SampleOnce(t0)
	get(t, ts, ts.URL+"/healthz")
	db.SampleOnce(t0.Add(2 * time.Millisecond))

	resp, body := get(t, ts, ts.URL+"/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("slo response not JSON: %v", err)
	}
	if len(out.Objectives) != 2 {
		t.Fatalf("%d objectives, want the 2 defaults", len(out.Objectives))
	}
	for _, st := range out.Objectives {
		if len(st.Windows) != 2 {
			t.Fatalf("objective %s has %d window pairs, want 2", st.Objective.Name, len(st.Windows))
		}
		for _, w := range st.Windows {
			if w.Firing {
				t.Fatalf("objective %s window %s firing on healthy traffic", st.Objective.Name, w.Name)
			}
		}
		if st.BudgetRemaining != 1 {
			t.Fatalf("objective %s budget %g, want 1 (no errors observed)", st.Objective.Name, st.BudgetRemaining)
		}
	}
}

// TestForcedBurnTripEmbedsTSDBWindow closes the tentpole loop: forced
// 5xx traffic burns the availability budget past the default fast
// pair's 14.4x, the rising-edge trip triggers a flight-recorder
// postmortem, and the bundle embeds the TSDB window around the
// incident.
func TestForcedBurnTripEmbedsTSDBWindow(t *testing.T) {
	s, db, ts := newTSDBServer(t, Config{Workers: 1})
	dir, dumpCount := installRecorder(t, db)

	// Force one 504 (the Request-Timeout bound expires before any
	// compute finishes) so the error series exists, sample the
	// pre-incident state, then burn hard and sample again: the window
	// now shows the error counter jumping. Increase needs two samples
	// per series — a counter first seen mid-window contributes nothing.
	force504 := func(seed int) {
		resp, _ := post(t, ts, "/v1/run", `{"seed": `+strconv.Itoa(seed)+`}`,
			map[string]string{"Request-Timeout": "0.000001"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("forced request status %d, want 504", resp.StatusCode)
		}
	}
	t0 := time.Now().Add(-time.Second) // backdated: samples must land inside the recorder's window
	get(t, ts, ts.URL+"/healthz")
	force504(99)
	db.SampleOnce(t0)
	for seed := 1; seed <= 4; seed++ {
		force504(seed)
	}
	t1 := t0.Add(2 * time.Millisecond)
	db.SampleOnce(t1)

	statuses := s.cfg.rules.Eval(t1)
	if w := statuses[0].Windows[0]; statuses[0].Objective.Name != "availability" || w.Name != "fast" || !w.Firing {
		t.Fatalf("availability fast pair not firing after forced 504s: %+v", statuses[0])
	}
	b := bundleFor(t, dir, "slo-burn:availability:fast")
	if len(b.TSDB) == 0 {
		t.Fatal("postmortem bundle embeds no TSDB window")
	}
	if !embeds(b, "http_requests_total", `code="504"`) {
		t.Fatal("embedded TSDB window is missing the offending 504 series")
	}

	// A second evaluation over the same still-burning window must not
	// re-trip (rising edge only).
	dumps := dumpCount()
	s.cfg.rules.Eval(t1)
	if dumpCount() != dumps {
		t.Fatal("steady burn re-tripped; trips must be rising-edge only")
	}
}

// TestInternalErrorBurnsAvailability: a permanent engine fault exhausts
// the retry budget, the server answers 500 (an internal failure, not
// the client's), and the availability objective counts it.
func TestInternalErrorBurnsAvailability(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: fault.SiteEngineRun, Kind: fault.RunFail, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, db, ts := newTSDBServer(t, Config{Workers: 1, Injector: inj})
	run := func(seed int) {
		resp, body := post(t, ts, "/v1/run", `{"seed": `+strconv.Itoa(seed)+`}`, nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("permanent engine fault answered %d %s, want 500", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "transient failure") {
			t.Fatalf("500 body %s does not name the engine failure", body)
		}
	}
	// The 500 series must exist before the first sample for its
	// increase to count (see TestForcedBurnTripEmbedsTSDBWindow).
	run(8)
	t0 := time.Now().Add(-time.Second)
	db.SampleOnce(t0)
	run(9)
	t1 := t0.Add(2 * time.Millisecond)
	db.SampleOnce(t1)
	for _, st := range s.cfg.rules.Eval(t1) {
		if st.Objective.Name == "availability" {
			if burn := st.Windows[0].ShortBurn; burn <= 0 {
				t.Fatalf("availability burn %g after a 500, want > 0", burn)
			}
			return
		}
	}
	t.Fatal("no availability status")
}

// TestWatchdogStallPostmortem wedges a one-worker server — a job holds
// the only worker and another waits behind it — samples at pinned
// times, and checks that the sched-stall rule trips once with a
// postmortem embedding the scheduler's queue series.
func TestWatchdogStallPostmortem(t *testing.T) {
	s, db, _ := newTSDBServer(t, Config{Workers: 1})
	dir, dumpCount := installRecorder(t, db)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) }) // runs before the server's Close
	started := make(chan struct{})
	enqueue(t, s, func() { close(started); <-block })
	<-started
	enqueue(t, s, func() {})

	t0 := time.Now().Add(-time.Second)
	for i := 0; i < slo.StallSamples; i++ {
		at := t0.Add(time.Duration(i) * 5 * time.Millisecond)
		db.SampleOnce(at)
		s.cfg.rules.Eval(at)
		if dumps := dumpCount(); (i < slo.StallSamples-1) != (dumps == 0) {
			t.Fatalf("after %d samples: %v postmortems, want one exactly at sample %d", i+1, dumps, slo.StallSamples)
		}
	}
	b := bundleFor(t, dir, "watchdog:sched-stall (1 queued, 1 in flight")
	if !embeds(b, "serve_queue_depth") {
		t.Fatal("stall postmortem does not embed the serve_queue_depth series")
	}
}

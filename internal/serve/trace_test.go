package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
)

// get issues a GET against the test server.
func get(t testing.TB, ts *httptest.Server, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestTraceIDOnHitAndMiss is the header contract: every /v1/run
// response — computed or served from cache — carries both the content
// address (X-Study-Key) and the request correlation (X-Trace-Id), and a
// caller-supplied traceparent is adopted rather than replaced.
func TestTraceIDOnHitAndMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	supplied := obs.TraceContext{Trace: obs.NewTraceID(), Parent: 5}
	respMiss, _ := post(t, ts, "/v1/run", `{"seed": 41}`,
		map[string]string{"traceparent": supplied.Traceparent()})
	if respMiss.Header.Get("X-Cache") != "hit" && respMiss.Header.Get("X-Study-Key") == "" {
		t.Fatal("miss response lost X-Study-Key")
	}
	if got := respMiss.Header.Get("X-Trace-Id"); got != supplied.Trace.String() {
		t.Fatalf("miss X-Trace-Id = %q, want the supplied %s", got, supplied.Trace)
	}

	respHit, _ := post(t, ts, "/v1/run", `{"seed": 41}`, nil)
	if respHit.Header.Get("X-Cache") != string(CacheHit) {
		t.Fatalf("second request X-Cache = %q, want hit", respHit.Header.Get("X-Cache"))
	}
	if respHit.Header.Get("X-Study-Key") == "" {
		t.Fatal("hit response lost X-Study-Key")
	}
	hitTrace := respHit.Header.Get("X-Trace-Id")
	if hitTrace == "" {
		t.Fatal("hit response lost X-Trace-Id")
	}
	if hitTrace == supplied.Trace.String() {
		t.Fatal("hit response reused the previous request's trace ID")
	}
	if _, ok := obs.ParseTraceparent(respHit.Header.Get("traceparent")); !ok {
		t.Fatalf("hit response traceparent %q unparseable", respHit.Header.Get("traceparent"))
	}
}

// TestDebugTraceSpanTree drives a compute-path /v1/run and reads its
// complete span tree back from /debug/trace/{id}: one tree, rooted at
// the serve request span, covering serve, cache, admission, engine, and
// the runtimes underneath — the tentpole's end-to-end assertion.
func TestDebugTraceSpanTree(t *testing.T) {
	tr := obs.NewTracer(1 << 17)
	obs.Install(tr)
	defer obs.Install(nil)
	_, ts := newTestServer(t, Config{Workers: 2})

	supplied := obs.TraceContext{Trace: obs.NewTraceID(), Parent: 1}
	resp, _ := post(t, ts, "/v1/run", `{"seed": 43}`,
		map[string]string{"traceparent": supplied.Traceparent()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	dresp, body := get(t, ts, ts.URL+"/debug/trace/"+supplied.Trace.String())
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", dresp.StatusCode, body)
	}
	var tree obs.TraceTree
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatalf("span tree not valid JSON: %v", err)
	}
	if tree.Trace != supplied.Trace.String() || tree.Spans == 0 {
		t.Fatalf("tree trace=%s spans=%d", tree.Trace, tree.Spans)
	}
	subsys := map[string]bool{}
	for _, s := range tree.Subsys {
		subsys[s] = true
	}
	for _, want := range []string{"serve http", "engine pool", "core study"} {
		if !subsys[want] {
			t.Errorf("span tree missing subsystem %q (got %v)", want, tree.Subsys)
		}
	}
	if !subsys["omp runtime"] && !subsys["mpi runtime"] && !subsys["pisim Pi 3 B+ (virtual time)"] {
		t.Errorf("span tree reaches no runtime (got %v)", tree.Subsys)
	}

	names := map[string]bool{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		names[n.Cat+"/"+n.Name] = true
		for _, c := range n.Child {
			walk(c)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
	for _, want := range []string{
		"serve/request", "serve/cache", "serve/admit", "engine/sweep", "engine/run", "core/study",
	} {
		if !names[want] {
			t.Errorf("span tree missing %s", want)
		}
	}

	// The request span is a root and the tree hangs beneath it.
	rootNames := map[string]bool{}
	for _, r := range tree.Roots {
		rootNames[r.Name] = true
	}
	if !rootNames["request"] {
		t.Errorf("request span is not a root (roots: %v)", rootNames)
	}

	// Error paths.
	if r, _ := get(t, ts, ts.URL+"/debug/trace/zzzz"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id: status %d, want 400", r.StatusCode)
	}
	unknown := obs.NewTraceID()
	if r, _ := get(t, ts, ts.URL+"/debug/trace/"+unknown.String()); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", r.StatusCode)
	}
	obs.Install(nil)
	if r, _ := get(t, ts, ts.URL+"/debug/trace/"+supplied.Trace.String()); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("tracer uninstalled: status %d, want 503", r.StatusCode)
	}
}

// TestCoalescedFollowersLinkLeaderTrace: concurrent identical requests
// compute once; each follower's own trace records a coalesced.link
// instant pointing at the leader's trace — the trace that actually
// holds the engine spans. The single pool worker is held busy until
// every follower has coalesced, so the leader's computation provably
// stays in flight while they arrive — no scheduling luck involved.
func TestCoalescedFollowersLinkLeaderTrace(t *testing.T) {
	tr := obs.NewTracer(1 << 17)
	obs.Install(tr)
	defer obs.Install(nil)
	s, ts := newTestServer(t, Config{Workers: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	if err := s.rt.Submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now parked; the leader's job must queue

	const dup = 6
	traces := make([]obs.TraceID, dup)
	errs := make(chan error, dup)
	for i := 0; i < dup; i++ {
		traces[i] = obs.NewTraceID()
		go func(i int) {
			resp, _ := post(t, ts, "/v1/run", `{"seed": 47}`, map[string]string{
				"traceparent": obs.TraceContext{Trace: traces[i], Parent: 1}.Traceparent(),
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			errs <- nil
		}(i)
	}
	// Whichever request wins the cache mutex is the leader; the other
	// five must find its in-flight call (the worker is parked, so it
	// cannot complete) and coalesce. Only then is the worker released.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Cache.Coalesced < dup-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced %d/%d before deadline", s.Stats().Cache.Coalesced, dup-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < dup; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Cache.Computes; got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", got)
	}

	// At least one follower linked to a leader, and the linked trace is
	// one of ours and holds the engine spans.
	mine := map[string]int{}
	for i := range traces {
		mine[traces[i].String()] = i
	}
	links := 0
	for _, r := range tr.Records() {
		if r.Cat != "serve" || r.Name != "coalesced.link" {
			continue
		}
		links++
		lt, _ := r.Args["linked_trace"].(string)
		li, ok := mine[lt]
		if !ok {
			t.Fatalf("coalesced.link points at foreign trace %q", lt)
		}
		if r.Trace.String() == lt {
			t.Fatal("a request linked to itself")
		}
		leader := traces[li]
		hasEngine := false
		for _, lr := range tr.TraceRecords(leader) {
			if lr.Cat == "engine" {
				hasEngine = true
				break
			}
		}
		if !hasEngine {
			t.Fatalf("leader trace %s has no engine spans", leader)
		}
	}
	if links == 0 {
		t.Fatal("no coalesced.link spans recorded (followers untraceable to the leader)")
	}
}

// TestForced5xxTriggersPostmortem: a request that times out (504)
// trips the obs→flightrec hook; the resulting bundle is parseable,
// names the offending trace, and is fetchable via /debug/flightrec.
func TestForced5xxTriggersPostmortem(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	obs.Install(tr)
	defer obs.Install(nil)
	rec := flightrec.New(flightrec.Config{Registry: obs.NewRegistry()})
	flightrec.Install(rec)
	defer flightrec.Install(nil)

	_, ts := newTestServer(t, Config{Workers: 1})
	supplied := obs.TraceContext{Trace: obs.NewTraceID(), Parent: 1}
	resp, _ := post(t, ts, "/v1/run", `{"seed": 53}`, map[string]string{
		"traceparent":     supplied.Traceparent(),
		"Request-Timeout": "0.000001",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}

	raw := rec.LastBundle()
	if raw == nil {
		t.Fatal("5xx did not trigger a flight-recorder bundle")
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("postmortem bundle not valid JSON: %v", err)
	}
	if b.Trace != supplied.Trace {
		t.Fatalf("bundle trace = %s, want the offending %s", b.Trace, supplied.Trace)
	}
	if !strings.Contains(b.Reason, "504") || !strings.Contains(b.Reason, "/v1/run") {
		t.Fatalf("bundle reason %q names neither the code nor the route", b.Reason)
	}

	// The retained bundle is fetchable over HTTP.
	lresp, lbody := get(t, ts, ts.URL+"/debug/flightrec?last=1")
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrec?last=1 status %d", lresp.StatusCode)
	}
	var last flightrec.Bundle
	if err := json.Unmarshal(lbody, &last); err != nil {
		t.Fatalf("retained bundle not valid JSON: %v", err)
	}
	if last.Trace != supplied.Trace {
		t.Fatal("retained bundle lost the offending trace")
	}

	// On-demand dumps always answer.
	oresp, obody := get(t, ts, ts.URL+"/debug/flightrec")
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrec status %d", oresp.StatusCode)
	}
	var onDemand flightrec.Bundle
	if err := json.Unmarshal(obody, &onDemand); err != nil {
		t.Fatalf("on-demand bundle not valid JSON: %v", err)
	}
	if onDemand.Reason != "on-demand" {
		t.Fatalf("on-demand reason = %q", onDemand.Reason)
	}
}

// TestDebugFlightrecDisabled: without a recorder the endpoint says so
// instead of pretending.
func TestDebugFlightrecDisabled(t *testing.T) {
	flightrec.Install(nil)
	_, ts := newTestServer(t, Config{Workers: 1})
	if r, _ := get(t, ts, ts.URL+"/debug/flightrec"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", r.StatusCode)
	}
}

// TestShedRecordedInFlightRecorder: injected admission sheds land in
// the recorder as shed events carrying the request's trace.
func TestShedRecordedInFlightRecorder(t *testing.T) {
	rec := flightrec.New(flightrec.Config{Registry: obs.NewRegistry()})
	flightrec.Install(rec)
	defer flightrec.Install(nil)

	inj, err := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: fault.SiteServeQueue, Kind: fault.QueueFull, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Injector: inj})
	supplied := obs.TraceContext{Trace: obs.NewTraceID(), Parent: 1}
	resp, _ := post(t, ts, "/v1/run", `{"seed": 59}`,
		map[string]string{"traceparent": supplied.Traceparent()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == "shed" && e.Trace == supplied.Trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed event with trace %s in %+v", supplied.Trace, rec.Events())
	}
}

// TestCacheSpanArgs pins what the serve cache span records: its status
// and the first 8 hex digits of the response's X-Study-Key.
func TestCacheSpanArgs(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	obs.Install(tr)
	defer obs.Install(nil)
	_, ts := newTestServer(t, Config{Workers: 1})

	tc := obs.TraceContext{Trace: obs.NewTraceID(), Parent: 1}
	resp, _ := post(t, ts, "/v1/run", `{"seed": 44}`, map[string]string{"traceparent": tc.Traceparent()})
	key := resp.Header.Get("X-Study-Key")
	if resp.StatusCode != http.StatusOK || len(key) != 64 {
		t.Fatalf("run status %d, X-Study-Key %q", resp.StatusCode, key)
	}
	for _, r := range tr.TraceRecords(tc.Trace) {
		if r.Name == "cache" {
			if r.Args["key"] != key[:8] || r.Args["status"] != "miss" {
				t.Fatalf("cache span args = %v, want key %s and status miss", r.Args, key[:8])
			}
			return
		}
	}
	t.Fatal("no cache span in the request's trace")
}

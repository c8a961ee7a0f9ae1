package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// newTestServer builds a Server on its own registry (so per-server
// counter assertions stay isolated) and tears it down with the test.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// enqueue admits job on s's runtime without waiting for it to run:
// SubmitWait with an already-ended ctx enqueues and returns at once.
func enqueue(t testing.TB, s *Server, job func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.rt.SubmitWait(ctx, job); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
}

// TestWorkersDefaultToNumCPU pins the zero-value worker count: the
// scheduler clamps WithWorkers(0) to a single worker, so Config must
// resolve Workers <= 0 to runtime.NumCPU() before building it (pbld's
// default -workers is 0).
func TestWorkersDefaultToNumCPU(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{0, runtime.NumCPU()},
		{3, 3},
	} {
		s := New(Config{Workers: tc.workers, Registry: obs.NewRegistry()})
		got := s.Stats().Pool.Workers
		s.Close()
		if got != tc.want {
			t.Errorf("Workers %d: scheduler has %d workers, want %d", tc.workers, got, tc.want)
		}
	}
}

func post(t testing.TB, ts *httptest.Server, path, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRunMatchesGoldenFile pins /v1/run to the exact bytes of the
// golden `pblstudy run -json` baseline: the service and the CLI are two
// doors into one deterministic pipeline.
func TestRunMatchesGoldenFile(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/run_paper_seed.json")
	if err != nil {
		t.Fatalf("golden baseline missing: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, got := post(t, ts, "/v1/run", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/run drifted from the golden baseline\ngot:  %q\nwant: %q", got, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Study-Key") == "" {
		t.Error("missing X-Study-Key")
	}
}

// TestRunHitMissAndNormalizationShareBytes asserts the content-address
// contract on one server: a miss and the following hit serve identical
// bytes, and a request spelling out the defaults addresses the same
// entry as one omitting them.
func TestRunHitMissAndNormalizationShareBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	respMiss, bodyMiss := post(t, ts, "/v1/run", `{"seed": 123}`, nil)
	if respMiss.StatusCode != http.StatusOK || respMiss.Header.Get("X-Cache") != string(CacheMiss) {
		t.Fatalf("first request: status %d, X-Cache %q", respMiss.StatusCode, respMiss.Header.Get("X-Cache"))
	}
	respHit, bodyHit := post(t, ts, "/v1/run", `{"seed": 123}`, nil)
	if respHit.StatusCode != http.StatusOK || respHit.Header.Get("X-Cache") != string(CacheHit) {
		t.Fatalf("second request: status %d, X-Cache %q", respHit.StatusCode, respHit.Header.Get("X-Cache"))
	}
	if !bytes.Equal(bodyMiss, bodyHit) {
		t.Error("hit bytes differ from miss bytes")
	}
	if respMiss.Header.Get("X-Study-Key") != respHit.Header.Get("X-Study-Key") {
		t.Error("hit and miss disagree on the content address")
	}

	// Explicit defaults hash to the same address as omitted ones.
	respExplicit, _ := post(t, ts, "/v1/run", `{"seed": 123, "students": 124}`, nil)
	if respExplicit.Header.Get("X-Cache") != string(CacheHit) {
		t.Errorf("explicit-defaults request missed the cache (X-Cache %q)", respExplicit.Header.Get("X-Cache"))
	}
	if st := s.Stats(); st.Cache.Computes != 1 {
		t.Errorf("computes = %d, want 1", st.Cache.Computes)
	}
}

// TestSweepWorkerCountNeverChangesBytes is the determinism half of the
// cache design: worker count is an execution knob, so it is excluded
// from the content address — and byte-identical responses prove the
// exclusion sound. Exercises servers with different pools AND request
// bodies with different per-sweep workers.
func TestSweepWorkerCountNeverChangesBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-server sweep comparison")
	}
	var bodies [][]byte
	var keys []string
	for _, tc := range []struct {
		cfgWorkers int
		body       string
	}{
		{1, `{"start": 500, "seeds": 4}`},
		{4, `{"start": 500, "seeds": 4}`},
		{2, `{"start": 500, "seeds": 4, "workers": 3}`},
	} {
		_, ts := newTestServer(t, Config{Workers: tc.cfgWorkers})
		resp, body := post(t, ts, "/v1/sweep", tc.body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", tc.cfgWorkers, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
		keys = append(keys, resp.Header.Get("X-Study-Key"))
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("sweep bytes differ between worker configurations 0 and %d", i)
		}
		if keys[0] != keys[i] {
			t.Errorf("content address differs between worker configurations: %s vs %s", keys[0], keys[i])
		}
	}
}

// TestConcurrentDuplicatesComputeOnce fires 8 identical requests at
// once; whether each lands as the miss leader, a coalesced follower, or
// a late hit, the compute ledger must read exactly 1.
func TestConcurrentDuplicatesComputeOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, "/v1/run", `{"seed": 777}`, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if st := s.Stats(); st.Cache.Computes != 1 {
		t.Fatalf("computes = %d, want exactly 1 for %d concurrent duplicates", st.Cache.Computes, n)
	}
}

// TestLoadShedReturns429WithRetryAfter saturates a 1-worker, 1-slot
// queue with distinct (uncacheable against each other) sweeps: the
// overflow must shed as 429 with a Retry-After hint, and shed requests
// appear in the ledger.
func TestLoadShedReturns429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	const n = 12
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"start": %d, "seeds": 3}`, 1000+i*100)
			resp, _ := post(t, ts, "/v1/sweep", body, nil)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	shed := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("429 response %d missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, code)
		}
	}
	if shed == 0 {
		t.Fatalf("no request shed: %d concurrent sweeps all fit a 1-worker/1-slot server", n)
	}
	if st := s.Stats(); st.Shed < int64(shed) {
		t.Errorf("shed ledger %d < observed 429s %d", st.Shed, shed)
	}
}

// TestInjectedQueueFullSheds arms the admission fault site at
// probability 1: every request sheds deterministically, exercising the
// same 429 path real overload takes.
func TestInjectedQueueFullSheds(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Site: fault.SiteServeQueue, Kind: fault.QueueFull, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Injector: inj})
	resp, body := post(t, ts, "/v1/run", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("shed body %q is not a JSON error", body)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

// TestRequestTimeoutHeaderBoundsWait sends a sweep too slow for its
// 1ms Request-Timeout: the waiter must come back 504 while the header
// can only shorten, never extend, the server bound.
func TestRequestTimeoutHeaderBoundsWait(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts, "/v1/sweep", `{"start": 42, "seeds": 40}`,
		map[string]string{"Request-Timeout": "0.001"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s, want 504", resp.StatusCode, body)
	}

	resp, body = post(t, ts, "/v1/run", "", map[string]string{"Request-Timeout": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus Request-Timeout: status %d: %s, want 400", resp.StatusCode, body)
	}

	// A header beyond the server bound, even past time.Duration's
	// range, is ignored rather than overflowing into an instant 504.
	for _, h := range []string{"inf", "1e300", "9.3e9"} {
		resp, body = post(t, ts, "/v1/run", `{"seed": 3}`, map[string]string{"Request-Timeout": h})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Request-Timeout %s: status %d: %s, want 200", h, resp.StatusCode, body)
		}
	}
}

// TestServerCorruptionHealServesOriginalBytes end-to-end: with the
// cache-corruption site always firing, a re-request detects the damage,
// recomputes, and still serves the original bytes. The heal reaches the
// exposition: serve_cache_corruption_healed_total reads the cache's
// own ledger.
func TestServerCorruptionHealServesOriginalBytes(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Site: fault.SiteServeCache, Kind: fault.CacheCorrupt, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Injector: inj})
	_, first := post(t, ts, "/v1/run", `{"seed": 9}`, nil)
	resp, second := post(t, ts, "/v1/run", `{"seed": 9}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("healed response differs from the original bytes")
	}
	if st := s.Stats(); st.Cache.CorruptRecovered != 1 {
		t.Errorf("corruption recovered = %d, want 1", st.Cache.CorruptRecovered)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "serve_cache_corruption_healed_total 1\n"; !strings.Contains(string(text), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

// TestGracefulDrainFinishesInFlightWork cancels Serve's context while a
// sweep is executing: the in-flight request must complete with its full
// 200 body before the listener dies, and the server must report
// not-ready afterwards.
func TestGracefulDrainFinishesInFlightWork(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg, DrainTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   []byte
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sweep", "application/json",
			strings.NewReader(`{"start": 60, "seeds": 6}`))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		reqDone <- result{status: resp.StatusCode, body: body, err: err}
	}()

	// Cancel only once the sweep is provably on a worker.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Pool.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached a pool worker")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	r := <-reqDone
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK || len(r.body) == 0 {
		t.Fatalf("in-flight request: status %d, %d body bytes; want a full 200", r.status, len(r.body))
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	// Drained: readiness reports 503 and new work is refused.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"seed": 1}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("new work after drain = %d, want 503", rec.Code)
	}
}

// TestServeDisconnectsDripFeedingClient: a client that sends its
// headers and then drips its body a byte at a time is cut off once
// readTimeout has passed, instead of holding a handler for as long as
// it keeps dripping.
func TestServeDisconnectsDripFeedingClient(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	defer func() { cancel(); <-serveDone }()
	dripUntilDisconnected(t, ln.Addr().String(), "/v1/run", readTimeout)
}

// dripUntilDisconnected opens a connection to addr, sends the headers of
// a POST to path announcing a 4 KiB body, then sends one body byte every
// 200ms. It fails the test unless the server closes the connection
// within timeout plus a few seconds of slack.
func dripUntilDisconnected(t *testing.T, addr, path string, timeout time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 4096\r\n\r\n{", path, addr); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, conn)
		close(closed)
	}()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	limit := time.After(timeout + 5*time.Second)
	for {
		select {
		case <-closed:
			t.Logf("disconnected after %v (read timeout %v)", time.Since(start).Round(time.Millisecond), timeout)
			return
		case <-limit:
			t.Fatalf("a client dripping its body is still connected after %v (read timeout %v)", time.Since(start).Round(time.Millisecond), timeout)
		case <-tick.C:
			_, _ = conn.Write([]byte(" ")) // fails once the server has closed; the read side reports that
		}
	}
}

func TestHealthReadyAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// One real request, then the exposition must carry the server's
	// families with it counted.
	post(t, ts, "/v1/run", "", nil)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"serve_cache_misses_total 1",
		"serve_queue_capacity",
		`http_requests_total{route="/v1/run",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/run", `{"sed": 1}`, http.StatusBadRequest},        // unknown field (typo must not hash to defaults)
		{"/v1/run", `{"students": 13}`, http.StatusBadRequest},  // odd cohort
		{"/v1/run", `{"students": 12}`, http.StatusBadRequest},  // sections of 6 cannot form teams of 4..5 (core.ConfigError from the build)
		{"/v1/sweep", `{"seeds": 2}`, http.StatusBadRequest},    // below minimum
		{"/v1/sweep", `{"seeds": 5000}`, http.StatusBadRequest}, // above MaxSweepSeeds
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %s = %d (%s), want %d", tc.path, tc.body, resp.StatusCode, body, tc.want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/spring2019?n=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("spring2019 n=3 = %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/run", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestQueryDecodesLikeBody: a GET's query reaches the same strict
// decoder as a POST body. An unknown key or a value of the wrong JSON
// type is a 400 rather than a silent default, and a valid query
// addresses the same cache entry, with the same bytes, as its body.
func TestQueryDecodesLikeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{
		"/v1/run?studnets=500",
		"/v1/run?uncalibrated=1",
		"/v1/run?seed=abc",
		"/v1/run?seed=%2B5",
		"/v1/run?seed=05",
		"/v1/run?seed=",
		"/v1/run?seed=%zz",
		"/v1/sweep?seeds=2",
		"/v1/cohort?batch=-1",
		"/v1/spring2019?n=20&sed=9",
		"/v1/spring2019?n=0",
	} {
		if resp, body := get(t, ts, ts.URL+path); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d (%s), want 400", path, resp.StatusCode, body)
		}
	}

	respPost, bodyPost := post(t, ts, "/v1/run", `{"seed": 7}`, nil)
	for _, query := range []string{"seed=7", "uncalibrated=false&students=124&seed=7", "seed=8&seed=7"} {
		resp, body := get(t, ts, ts.URL+"/v1/run?"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET ?%s: status %d: %s", query, resp.StatusCode, body)
		}
		if k, want := resp.Header.Get("X-Study-Key"), respPost.Header.Get("X-Study-Key"); k != want {
			t.Errorf("GET ?%s: X-Study-Key %s, POST {\"seed\": 7} %s", query, k, want)
		}
		if !bytes.Equal(body, bodyPost) {
			t.Errorf("GET ?%s: bytes differ from the POST's", query)
		}
	}
}

// TestStrictBodyDecoding: a body is exactly one JSON value of at most
// 1 MiB. Trailing data is refused rather than ignored, and an oversize
// body answers 413 rather than being truncated or misparsed.
func TestStrictBodyDecoding(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		want       int
	}{
		{"trailing garbage", `{"seed": 7} trailing garbage`, http.StatusBadRequest},
		{"second value", `{"seed": 7} {"seed": 8}`, http.StatusBadRequest},
		{"value then 2 MiB of spaces", `{"seed": 7}` + strings.Repeat(" ", 2<<20), http.StatusRequestEntityTooLarge},
		{"2 MiB number", `{"seed": ` + strings.Repeat("7", 2<<20) + `}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/v1/run", tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%.80s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

func TestSpring2019Endpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := ts.Client().Get(ts.URL + "/v1/spring2019?n=200&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		N          int             `json:"n"`
		Seed       int64           `json:"seed"`
		Projection json.RawMessage `json:"projection"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.N != 200 || out.Seed != 7 || len(out.Projection) == 0 {
		t.Errorf("response = n=%d seed=%d projection %d bytes", out.N, out.Seed, len(out.Projection))
	}
}

// TestEncodeJSONIsMarshalIndent: the pooled encoder writes exactly
// MarshalIndent's bytes plus a newline (HTML escaping included), and a
// returned body keeps its bytes after later calls reuse the buffer.
func TestEncodeJSONIsMarshalIndent(t *testing.T) {
	big := make([]map[string]float64, 2000)
	for i := range big {
		big[i] = map[string]float64{"mean": float64(i) / 3, "sd": 1e21 / float64(i+1)}
	}
	vals := []any{map[string]any{"html": "<a & b>", "n": 1}, big, "short"}
	var got, want [][]byte
	for _, v := range vals {
		g, err := encodeJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, g), append(want, append(w, '\n'))
	}
	for i := range vals {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("value %d: encodeJSON = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := encodeJSON(func() {}); err == nil {
		t.Error("encodeJSON(func) succeeded, want the marshal error")
	}
}

package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pblparallel/internal/obs"
)

// BenchmarkCacheHitDo times the hot serving path — a content-addressed
// cache hit with its integrity digest check — with no injector armed.
func BenchmarkCacheHitDo(b *testing.B) {
	c := NewCache(8, nil)
	k := NewKey([]byte("bench"))
	body := []byte(strings.Repeat("x", 1024))
	if _, _, err := c.Do(context.Background(), k, func() ([]byte, error) { return body, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, status, err := c.Do(context.Background(), k, nil)
		if err != nil || status != CacheHit || len(got) != len(body) {
			b.Fatalf("hit = %v, %v", status, err)
		}
	}
}

// BenchmarkServeCachedRun is the short load run behind EXPERIMENTS.md:
// concurrent clients hammering the cache-hit path of /v1/run over real
// HTTP. Alongside ns/op it reports sustained req/s, the cache hit rate,
// and p50/p95/p99 route latency from the server's own histogram.
func BenchmarkServeCachedRun(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Registry: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the single entry so the measured loop serves hits.
	warm, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"seed": 321}`))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", warm.StatusCode)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"seed": 321}`))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	st := s.Stats()
	if total := st.Cache.Hits + st.Cache.Misses + st.Cache.Coalesced; total > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(total), "hit-rate")
	}
	for _, q := range []struct {
		q    float64
		unit string
	}{{0.50, "p50-ms"}, {0.95, "p95-ms"}, {0.99, "p99-ms"}} {
		b.ReportMetric(reg.HistogramVec("http_request_duration_seconds", "", "route").With("/v1/run").Quantile(q.q)*1e3, q.unit)
	}
}

// BenchmarkServeCachedRunHandler isolates the server side of a cached
// /v1/run: the handler invoked directly (no sockets, no client), so
// the number is the per-request cost of routing + decode + the cache
// fast path. This is the figure the scheduler redesign's clean-hit
// fast path targets (the full-HTTP benchmark above is dominated by
// client and loopback cost).
func BenchmarkServeCachedRunHandler(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Registry: reg})
	defer s.Close()
	h := s.Handler()

	warm := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"seed": 321}`))
	warm.Header.Set("Content-Type", "application/json")
	wrec := httptest.NewRecorder()
	h.ServeHTTP(wrec, warm)
	if wrec.Code != http.StatusOK {
		b.Fatalf("warmup status %d", wrec.Code)
	}

	body := `{"seed": 321}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeComputeRun measures the uncached path: every iteration
// a distinct seed, so each response is a full study computation through
// admission, pool, and cache store.
func BenchmarkServeComputeRun(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 4, Registry: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"seed": %d}`, 100000+i)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

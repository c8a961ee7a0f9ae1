package bench

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pblparallel/internal/serve"
)

// smokeSizes shrink every workload so all of them run in seconds.
var smokeSizes = Sizes{
	HitKeys:        16,
	TieredKeys:     64,
	TieredFresh:    tieredTarget.Miss,
	TieredRate:     100,
	TieredCache:    8,
	SweepSeeds:     3,
	CohortStudents: 20_000,
	SetupStarts:    1,
	Warmup:         50 * time.Millisecond,
	Slices:         1,
	RefRounds:      1,
	ProbeStudies:   8,
	ProbeCalls:     200,
	ProbeBatches:   1,
}

// buildPbld builds the daemon under test into a temporary directory.
func buildPbld(t *testing.T) string {
	t.Helper()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	bin := filepath.Join(t.TempDir(), "pbld")
	if out, err := exec.Command(goCmd, "build", "-o", bin, "pblparallel/cmd/pbld").CombinedOutput(); err != nil {
		t.Fatalf("go build pbld: %v\n%s", err, out)
	}
	return bin
}

func smokeOptions(t *testing.T, pbld, workload string, trace bool) Options {
	return Options{
		Workload: workload,
		Seed:     1,
		Duration: 300 * time.Millisecond,
		Trace:    trace,
		Pbld:     pbld,
		Root:     "..",
		Work:     t.TempDir(),
		Sizes:    smokeSizes,
	}
}

// Every workload runs end to end and emits every metric BENCHMARK.json
// names with its unit, with no failed request and all bytes verified;
// the traced pass emits every per-layer metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pbld")
	}
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	pbld := buildPbld(t)
	var want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(want, ",") != strings.Join(Workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, package has %v", want, Workloads)
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			if trace && w != Tiered {
				continue // one traced pass covers every probe; tiered also reads the store counters
			}
			var log bytes.Buffer
			o := smokeOptions(t, pbld, w, trace)
			o.Log = &log
			res, err := Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct %t, %d of %d failed\n%s", w, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			names := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					names[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					names[m.Name] = m.Unit
				}
			}
			for name, unit := range names {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(names))
			}
			if !trace && res.Metrics["goodput_ratio"].Value != 1 {
				t.Errorf("%s: goodput %v, want 1", w, res.Metrics["goodput_ratio"].Value)
			}
			// The tier each request reached must be the one the model of
			// the daemon's tiers predicts, which the workload's
			// parameters were chosen with.
			if w == Tiered {
				got, want := res.tiers, res.model
				if math.Abs(got.Mem-want.Mem) > 0.1 || math.Abs(got.Disk-want.Disk) > 0.1 || math.Abs(got.Miss-want.Miss) > 0.1 ||
					got.Mem == 0 || got.Disk == 0 || got.Miss == 0 {
					t.Errorf("tiered trace=%t: tier mix %v, model %v; want every tier used and within 0.1 of the model", trace, got, want)
				}
			}
		}
	}
}

// flipNth returns an Options.Via that puts a proxy in front of the
// daemon which flips one byte of the nth response to a /v1/ request.
func flipNth(t *testing.T, nth int64, served *atomic.Int64) func(string) string {
	return func(daemonURL string) string {
		target, err := url.Parse(daemonURL)
		if err != nil {
			t.Fatal(err)
		}
		rp := httputil.NewSingleHostReverseProxy(target)
		rp.ModifyResponse = func(resp *http.Response) error {
			if !strings.HasPrefix(resp.Request.URL.Path, "/v1/") || served.Add(1) != nth {
				return nil
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			b[len(b)/2] ^= 1
			resp.Body = io.NopCloser(bytes.NewReader(b))
			resp.ContentLength = int64(len(b))
			resp.Header.Set("Content-Length", strconv.Itoa(len(b)))
			return nil
		}
		proxy := httptest.NewServer(rp)
		t.Cleanup(proxy.Close)
		return proxy.URL
	}
}

// A proxy that flips one byte of one response must make the run fail:
// on hit, a warmed key's first response and a later one, which the
// first-seen digests catch; on compute, a response to a key asked for
// only once, which only the in-process recomputation catches.
func TestSmokeDetectsAFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pbld")
	}
	pbld := buildPbld(t)
	for _, c := range []struct {
		workload string
		nth      int64
	}{{Hit, 5}, {Hit, 40}, {Compute, 20}} {
		var served atomic.Int64
		o := smokeOptions(t, pbld, c.workload, false)
		o.Via = flipNth(t, c.nth, &served)
		res, err := Run(context.Background(), o)
		if err == nil && res.Correct {
			t.Fatalf("%s: response %d had a flipped byte, and the run passed: %+v", c.workload, c.nth, res)
		}
		if served.Load() < c.nth {
			t.Fatalf("%s: only %d responses went through the proxy", c.workload, served.Load())
		}
	}
}

// The disk-tier probe stores entries under the content address pbld
// gives POST /v1/run {"seed":s}; it must be the one pbld serves as
// X-Study-Key.
func TestRunCanonicalIsPbldsKey(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pbld")
	}
	d, err := startDaemon(buildPbld(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	cl := newClient(d.url, 1)
	defer cl.close()
	if err := d.waitReady(context.Background(), cl.hc); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.hc.Post(d.url+"/v1/run", "application/json", strings.NewReader(`{"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run: status %d, %v", resp.StatusCode, err)
	}
	if got, want := resp.Header.Get("X-Study-Key"), serve.NewKey(runCanonical(7)).Hex(); got != want {
		t.Errorf("pbld's X-Study-Key %q, the probe's key %q: runCanonical no longer matches the handler", got, want)
	}
}

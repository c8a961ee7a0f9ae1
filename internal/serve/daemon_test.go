package serve

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/obs/prof"
)

// fullOptions arms every part of the daemon on a private registry.
func fullOptions(t *testing.T) Options {
	return Options{
		Config:       Config{Workers: 1, Registry: obs.NewRegistry()},
		CacheDir:     t.TempDir(),
		FlightRec:    true,
		FlightRecDir: t.TempDir(),
		Prof:         true,
		TSDB:         true,
		SLO:          true,
	}
}

// TestOpenUnwindsOnStoreError: when the last step fails (the cache
// directory is a regular file), Open leaves the process-wide tracer,
// profiler and flight recorder as it found them and no goroutine behind.
func TestOpenUnwindsOnStoreError(t *testing.T) {
	o := fullOptions(t)
	o.CacheDir = filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(o.CacheDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tracer, profiler, recorder := obs.Default(), prof.Active(), flightrec.Active()
	goroutines := runtime.NumGoroutine()

	if d, err := Open(o); err == nil {
		d.Close()
		t.Fatal("Open over a regular-file cache dir succeeded")
	}
	if obs.Default() != tracer || prof.Active() != profiler || flightrec.Active() != recorder {
		t.Fatal("failed Open left a global installed")
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("failed Open leaked %d goroutine(s)", n-goroutines)
	}
}

// TestDaemonStoreMetricsSampled: the persistent tier registers on the
// daemon's registry, so one sample puts store_* series in its TSDB.
func TestDaemonStoreMetricsSampled(t *testing.T) {
	o := fullOptions(t)
	o.FlightRec, o.Prof = false, false
	d, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.cfg.db.SampleOnce(time.Now())
	for _, k := range d.cfg.db.Keys() {
		if strings.HasPrefix(k, "store_") {
			return
		}
	}
	t.Fatalf("no store_* series after a sample: %v", d.cfg.db.Keys())
}

// TestDaemonServeLifecycle: a postmortem taken while the daemon runs
// embeds a TSDB window even before the clock has ticked, and after the
// drain every global Open installed is gone again.
func TestDaemonServeLifecycle(t *testing.T) {
	tracer, profiler, recorder := obs.Default(), prof.Active(), flightrec.Active()
	o := fullOptions(t)
	o.TSDBInterval = time.Hour // the clock never ticks during the test
	d, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Default() == nil || prof.Active() == profiler || flightrec.Active() == recorder {
		t.Fatal("Open did not install a tracer, its profiler and its flight recorder")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()

	path := d.Postmortem("lifecycle")
	if path == "" {
		t.Fatal("postmortem not written to the flight-recorder dir")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.TSDB) == 0 {
		t.Fatal("postmortem embeds no TSDB window")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if obs.Default() != tracer || prof.Active() != profiler || flightrec.Active() != recorder {
		t.Fatal("a global Open installed survived the drain")
	}
}

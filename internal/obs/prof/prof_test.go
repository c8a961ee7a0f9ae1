package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pblparallel/internal/obs"
)

// newTestProfiler builds a profiler on a private registry so test runs
// don't pollute the process counters.
func newTestProfiler(t *testing.T, capacity int) *Profiler {
	t.Helper()
	return New(Config{Capacity: capacity, Registry: obs.NewRegistry()})
}

// assertPprofGzip verifies data is a gzip stream that decompresses to
// non-empty bytes — the shape `go tool pprof` expects from a .pb.gz.
func assertPprofGzip(t *testing.T, kind string, data []byte) {
	t.Helper()
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s: data is not gzip (len=%d)", kind, len(data))
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: gzip reader: %v", kind, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: decompress: %v", kind, err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s: decompressed profile is empty", kind)
	}
}

func TestNilProfiler(t *testing.T) {
	var p *Profiler
	if got := p.CaptureTrigger("x"); got != nil {
		t.Errorf("nil CaptureTrigger = %v, want nil", got)
	}
	if got := p.Snapshots(); got != nil {
		t.Errorf("nil Snapshots = %v, want nil", got)
	}
	if _, ok := p.Latest(KindHeap); ok {
		t.Error("nil Latest reported ok")
	}
	if _, ok := p.Get(1); ok {
		t.Error("nil Get reported ok")
	}
	if n, err := p.DumpRing(t.TempDir()); n != 0 || err != nil {
		t.Errorf("nil DumpRing = (%d, %v), want (0, nil)", n, err)
	}
	if p.Captures() != 0 {
		t.Error("nil Captures != 0")
	}
	p.Cycle(time.Now()) // must not panic
	p.Stop()
}

func TestCaptureTriggerShipsAllInstantKinds(t *testing.T) {
	p := newTestProfiler(t, 16)
	snaps := p.CaptureTrigger("test-trigger")
	// No cycle has run, so there is no CPU snapshot; every
	// instant kind must be present and well-formed.
	if len(snaps) != len(instantKinds) {
		t.Fatalf("got %d snapshots, want %d (kinds: %v)", len(snaps), len(instantKinds), kinds(snaps))
	}
	seen := map[string]bool{}
	for _, s := range snaps {
		seen[s.Kind] = true
		if s.Reason != "test-trigger" {
			t.Errorf("%s: reason %q, want test-trigger", s.Kind, s.Reason)
		}
		assertPprofGzip(t, s.Kind, s.Data)
	}
	for _, k := range instantKinds {
		if !seen[k] {
			t.Errorf("missing kind %s", k)
		}
	}
	// The trigger snapshots also landed in the ring.
	if got := len(p.Snapshots()); got != len(instantKinds) {
		t.Errorf("ring holds %d snapshots, want %d", got, len(instantKinds))
	}
	if p.Captures() != int64(len(instantKinds)) {
		t.Errorf("Captures = %d, want %d", p.Captures(), len(instantKinds))
	}
}

func kinds(snaps []Snapshot) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.Kind
	}
	return out
}

func TestRingWrapKeepsNewest(t *testing.T) {
	p := newTestProfiler(t, 4)
	for i := 0; i < 3; i++ {
		p.CaptureTrigger("wrap") // 4 snapshots per trigger
	}
	snaps := p.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d snapshots, want capacity 4", len(snaps))
	}
	// Oldest-first and strictly increasing sequence, ending at the
	// 12th capture.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Seq != snaps[i-1].Seq+1 {
			t.Errorf("seq gap: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
		}
	}
	if last := snaps[len(snaps)-1].Seq; last != 12 {
		t.Errorf("newest seq = %d, want 12", last)
	}
	// Evicted snapshots are no longer gettable; retained ones are.
	if _, ok := p.Get(1); ok {
		t.Error("Get(1) found an evicted snapshot")
	}
	if s, ok := p.Get(12); !ok || s.Seq != 12 {
		t.Errorf("Get(12) = (%v, %v), want the newest snapshot", s.Seq, ok)
	}
}

func TestLatestPrefersNewest(t *testing.T) {
	p := newTestProfiler(t, 16)
	p.CaptureTrigger("first")
	p.CaptureTrigger("second")
	s, ok := p.Latest(KindHeap)
	if !ok {
		t.Fatal("no heap snapshot")
	}
	if s.Reason != "second" {
		t.Errorf("Latest heap reason = %q, want second", s.Reason)
	}
	if _, ok := p.Latest(KindCPU); ok {
		t.Error("Latest(cpu) reported ok with no CPU capture")
	}
}

func TestDumpRing(t *testing.T) {
	p := newTestProfiler(t, 16)
	p.CaptureTrigger("dump")
	dir := t.TempDir()
	n, err := p.DumpRing(dir)
	if err != nil {
		t.Fatalf("DumpRing: %v", err)
	}
	if n != len(instantKinds) {
		t.Fatalf("wrote %d files, want %d", n, len(instantKinds))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("dir holds %d files, want %d", len(ents), n)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "prof-") || !strings.HasSuffix(e.Name(), ".pb.gz") {
			t.Errorf("unexpected file name %q", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		assertPprofGzip(t, e.Name(), data)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCycleCapturesCPU drives the profiler from an obs.Clock, the way
// the daemon does: the CPU window closes on its own timer, so the clock
// is never blocked for it, and a trigger then ships that CPU snapshot
// with fresh instant profiles.
func TestCycleCapturesCPU(t *testing.T) {
	p := New(Config{Capacity: 16, CPUDuration: 10 * time.Millisecond, Registry: obs.NewRegistry()})
	clock := obs.NewClock(30 * time.Millisecond)
	clock.Every(30*time.Millisecond, p.Cycle)
	clock.Start()
	waitFor(t, "clock-driven cycle produced no CPU snapshot", func() bool {
		_, ok := p.Latest(KindCPU)
		return ok
	})
	clock.Stop()
	p.Stop()
	cpu, _ := p.Latest(KindCPU)
	if cpu.Reason != "interval" {
		t.Errorf("cpu reason = %q, want interval", cpu.Reason)
	}
	assertPprofGzip(t, KindCPU, cpu.Data)
	if _, ok := p.Latest(KindHeap); !ok {
		t.Error("cycle captured no heap snapshot")
	}
	snaps := p.CaptureTrigger("after-cycle")
	if len(snaps) != len(instantKinds)+1 {
		t.Fatalf("trigger shipped %d snapshots, want %d (kinds: %v)",
			len(snaps), len(instantKinds)+1, kinds(snaps))
	}
	if snaps[0].Kind != KindCPU {
		t.Errorf("first trigger snapshot kind = %s, want cpu", snaps[0].Kind)
	}
}

// TestStopCancelsOpenCPUWindow: a cycle returns while its hour-long CPU
// window is still open, and Stop closes it at once, keeping the
// partial profile and releasing the runtime's one CPU profiler.
func TestStopCancelsOpenCPUWindow(t *testing.T) {
	p := New(Config{Capacity: 16, CPUDuration: time.Hour, Registry: obs.NewRegistry()})
	clock := obs.NewClock(time.Millisecond)
	clock.Every(time.Millisecond, p.Cycle)
	clock.Start()
	waitFor(t, "no CPU window opened", cpuActive.Load)
	// Further cycles find the window open and skip their CPU profile,
	// but keep ticking: the instant profiles keep arriving.
	waitFor(t, "the clock stalled behind the open window", func() bool {
		return p.Captures() >= int64(3*len(instantKinds))
	})
	clock.Stop()
	p.Stop()
	p.Stop() // idempotent
	if cpuActive.Load() {
		t.Fatal("Stop left the CPU window open")
	}
	cpu, ok := p.Latest(KindCPU)
	if !ok {
		t.Fatal("Stop discarded the partial CPU window")
	}
	assertPprofGzip(t, KindCPU, cpu.Data)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("runtime CPU profiler still held after Stop: %v", err)
	}
	pprof.StopCPUProfile()
}

func TestCPUCaptureYieldsWhenBusy(t *testing.T) {
	// Simulate an operator holding /debug/pprof/profile open: the
	// runtime allows one CPU profile at a time, so the profiler must
	// count an error and move on rather than fail the cycle.
	var ext bytes.Buffer
	if err := pprof.StartCPUProfile(&ext); err != nil {
		t.Skipf("cannot start external CPU profile: %v", err)
	}
	defer pprof.StopCPUProfile()
	reg := obs.NewRegistry()
	p := New(Config{Capacity: 4, Registry: reg})
	cpuActive.Store(true) // reflect the external session
	defer cpuActive.Store(false)
	p.startCPU("contended")
	if _, ok := p.Latest(KindCPU); ok {
		t.Error("captured a CPU profile while one was already active")
	}
	errs := reg.Counter("prof_capture_errors_total", "").Value()
	if errs != 1 {
		t.Errorf("errors = %d, want 1", errs)
	}
}

func TestInstallActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("profiler unexpectedly installed at test start")
	}
	p := newTestProfiler(t, 4)
	Install(p)
	if Active() != p {
		t.Error("Active() != installed profiler")
	}
	Install(nil)
	if Active() != nil {
		t.Error("Install(nil) did not uninstall")
	}
}

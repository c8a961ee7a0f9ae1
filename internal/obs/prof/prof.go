// Package prof is the continuous profiler: a cycle, run on the
// daemon's obs.Clock, that captures CPU, heap, goroutine, mutex, and
// block pprof profiles into a bounded in-memory ring of compressed
// snapshots, plus a trigger-driven capture path so every
// flight-recorder postmortem bundle ships with the profiles that
// explain it.
//
// It obeys the observability contract of the tracer and the flight
// recorder: capturing never changes what the system computes, and the
// disabled path (no profiler installed) is a nil-pointer check with
// zero allocations.
package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/obs"
)

// Profile kinds. The values match runtime/pprof.Lookup names where one
// exists; "cpu" is the sampled CPU profile.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
	KindMutex     = "mutex"
	KindBlock     = "block"
)

// instantKinds are the profiles capturable at a point in time (no
// sampling window), in capture order.
var instantKinds = []string{KindHeap, KindGoroutine, KindMutex, KindBlock}

// Snapshot is one captured profile. Data is the pprof protobuf exactly
// as the runtime emits it (already gzip-compressed), so a snapshot can
// be written to a .pb.gz file or fed to `go tool pprof` unmodified.
type Snapshot struct {
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	At     time.Time `json:"at"`
	Reason string    `json:"reason"`
	Data   []byte    `json:"data,omitempty"`
}

// Config sizes and paces a Profiler.
type Config struct {
	// Capacity is the snapshot-ring size (slots); <1 selects 64.
	Capacity int
	// CPUDuration is the CPU sampling window per cycle; <=0 selects
	// 1s. It should be shorter than the cycle period: a cycle that
	// finds the previous window still open counts a capture error and
	// skips its CPU profile.
	CPUDuration time.Duration
	// MutexFraction is passed to runtime.SetMutexProfileFraction when
	// >0 (sample 1/n of contention events); 0 leaves the rate alone.
	MutexFraction int
	// BlockRate is passed to runtime.SetBlockProfileRate when >0
	// (nanoseconds of blocking per sample); 0 leaves the rate alone.
	BlockRate int
	// Registry receives the profiler's own counters (process registry
	// when nil).
	Registry *obs.Registry
}

// Profiler captures profiles on a cadence and on demand. All methods
// are safe for concurrent use and safe on a nil receiver (the disabled
// profiler).
type Profiler struct {
	cfg Config

	mu   sync.Mutex
	ring []Snapshot
	next uint64
	seq  uint64

	cpuMu sync.Mutex // held while a CPU window opens or closes
	cpu   *cpuWindow // the open CPU sampling window, if any

	captures *obs.Counter
	errors   *obs.Counter
}

// New builds a profiler from cfg (see Config for defaults) and applies
// the mutex/block sampling rates.
func New(cfg Config) *Profiler {
	if cfg.Capacity < 1 {
		cfg.Capacity = 64
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Metrics()
	}
	if cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexFraction)
	}
	if cfg.BlockRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRate)
	}
	return &Profiler{
		cfg:  cfg,
		ring: make([]Snapshot, cfg.Capacity),
		captures: cfg.Registry.Counter("prof_captures_total",
			"Profile snapshots captured into the continuous-profiling ring."),
		errors: cfg.Registry.Counter("prof_capture_errors_total",
			"Profile captures that failed (e.g. CPU profiling already active)."),
	}
}

// Cycle is one continuous-profiling step, run by the daemon's clock:
// it opens a CPU sampling window that a timer closes CPUDuration later,
// then takes the instant heap/goroutine/mutex/block snapshots. It never
// waits for the window, so the clock's other jobs keep their cadence.
func (p *Profiler) Cycle(time.Time) {
	if p == nil {
		return
	}
	p.startCPU("interval")
	for _, kind := range instantKinds {
		p.captureInstant(kind, "interval")
	}
}

// Stop closes an open CPU window now, keeping what it sampled, and
// cancels its timer; it returns once the runtime's CPU profiler is
// released. Call it after the clock stops driving Cycle.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.cpuMu.Lock()
	w := p.cpu
	p.cpuMu.Unlock()
	p.closeCPU(w)
}

// cpuActive serializes CPU profiling process-wide: the runtime allows
// only one CPU profile at a time, and an operator may be holding
// /debug/pprof/profile open.
var cpuActive atomic.Bool

// cpuWindow is one open CPU profile: the buffer the runtime writes
// into and the timer that closes it.
type cpuWindow struct {
	reason string
	buf    bytes.Buffer
	timer  *time.Timer
}

// startCPU opens a CPU sampling window that closes itself after
// CPUDuration.
func (p *Profiler) startCPU(reason string) {
	if !cpuActive.CompareAndSwap(false, true) {
		p.errors.Inc()
		return
	}
	w := &cpuWindow{reason: reason}
	if err := pprof.StartCPUProfile(&w.buf); err != nil {
		cpuActive.Store(false)
		p.errors.Inc()
		return
	}
	p.cpuMu.Lock()
	p.cpu = w
	w.timer = time.AfterFunc(p.cfg.CPUDuration, func() { p.closeCPU(w) })
	p.cpuMu.Unlock()
}

// closeCPU stops window w's profile and stores it, unless the timer or
// Stop closed it first.
func (p *Profiler) closeCPU(w *cpuWindow) {
	p.cpuMu.Lock()
	defer p.cpuMu.Unlock()
	if w == nil || p.cpu != w {
		return
	}
	p.cpu = nil
	w.timer.Stop()
	pprof.StopCPUProfile()
	cpuActive.Store(false)
	p.store(KindCPU, w.reason, w.buf.Bytes())
}

// captureInstant snapshots one point-in-time profile by name.
func (p *Profiler) captureInstant(kind, reason string) {
	prof := pprof.Lookup(kind)
	if prof == nil {
		p.errors.Inc()
		return
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		p.errors.Inc()
		return
	}
	p.store(kind, reason, buf.Bytes())
}

// store appends one snapshot to the ring.
func (p *Profiler) store(kind, reason string, data []byte) {
	p.mu.Lock()
	p.seq++
	p.ring[p.next%uint64(len(p.ring))] = Snapshot{
		Seq: p.seq, Kind: kind, At: time.Now(), Reason: reason,
		Data: append([]byte(nil), data...),
	}
	p.next++
	p.mu.Unlock()
	p.captures.Inc()
}

// CaptureTrigger takes instant heap/goroutine/mutex/block snapshots
// tagged with reason, pairs them with the most recent CPU snapshot
// from the continuous ring (a CPU profile needs a sampling window, so
// a trigger can only ship what the clock-driven cycle already has), and
// returns the set. The new snapshots also enter the ring. Nil-safe:
// the disabled profiler returns nil.
func (p *Profiler) CaptureTrigger(reason string) []Snapshot {
	if p == nil {
		return nil
	}
	out := make([]Snapshot, 0, len(instantKinds)+1)
	if cpu, ok := p.Latest(KindCPU); ok {
		out = append(out, cpu)
	}
	for _, kind := range instantKinds {
		p.captureInstant(kind, reason)
		if s, ok := p.Latest(kind); ok {
			out = append(out, s)
		}
	}
	return out
}

// Snapshots returns copies of the buffered snapshots, oldest first.
// Data slices are shared (snapshots are immutable once stored).
func (p *Profiler) Snapshots() []Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.next
	cap64 := uint64(len(p.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Snapshot, 0, n-start)
	for j := start; j < n; j++ {
		out = append(out, p.ring[j%cap64])
	}
	return out
}

// Latest returns the most recent snapshot of kind, if any.
func (p *Profiler) Latest(kind string) (Snapshot, bool) {
	return p.newest(func(s Snapshot) bool { return s.Kind == kind })
}

// Get returns the snapshot with the given sequence number, if still in
// the ring.
func (p *Profiler) Get(seq uint64) (Snapshot, bool) {
	return p.newest(func(s Snapshot) bool { return s.Seq == seq })
}

// newest returns the most recent buffered snapshot that match accepts.
func (p *Profiler) newest(match func(Snapshot) bool) (Snapshot, bool) {
	if p == nil {
		return Snapshot{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cap64 := uint64(len(p.ring))
	for j := p.next; j > 0 && p.next-j < cap64; j-- {
		if s := p.ring[(j-1)%cap64]; match(s) {
			return s, true
		}
	}
	return Snapshot{}, false
}

// DumpRing writes every buffered snapshot to dir as
// prof-<seq>-<kind>.pb.gz files ready for `go tool pprof`, and reports
// how many were written.
func (p *Profiler) DumpRing(dir string) (int, error) {
	if p == nil {
		return 0, nil
	}
	snaps := p.Snapshots()
	if len(snaps) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	for _, s := range snaps {
		name := fmt.Sprintf("prof-%06d-%s.pb.gz", s.Seq, s.Kind)
		if err := os.WriteFile(filepath.Join(dir, name), s.Data, 0o644); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// Captures reports how many snapshots have been stored.
func (p *Profiler) Captures() int64 {
	if p == nil {
		return 0
	}
	return p.captures.Value()
}

// active is the process-wide profiler; nil means disabled.
var active atomic.Pointer[Profiler]

// Install makes p the process-wide profiler returned by Active; nil
// uninstalls. Capture sites never hold the profiler across calls, so
// installation takes effect at the next capture.
func Install(p *Profiler) {
	active.Store(p)
}

// Active returns the installed profiler, or nil when continuous
// profiling is disabled. All Profiler methods are safe on the nil
// result.
func Active() *Profiler {
	return active.Load()
}

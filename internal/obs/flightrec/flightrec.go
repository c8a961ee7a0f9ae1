// Package flightrec is the black-box flight recorder: a fixed-size
// lock-sharded ring that continuously captures the last N seconds of
// structured incidents (sheds, retries, injected faults, corruption
// heals, poisoned barriers), and dumps a self-contained JSON postmortem
// bundle when something goes wrong — a 5xx response, a shed burst,
// SIGQUIT, or an operator asking.
//
// It obeys the same contract as the tracer: recording never changes
// what the system computes, and the disabled path (no recorder
// installed) is a nil-pointer check with zero allocations.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/prof"
	"pblparallel/internal/obs/tsdb"
)

// Kind classifies one recorded incident.
type Kind uint8

const (
	KindShed Kind = iota + 1
	KindRetry
	KindFaultInjected
	KindCorruptionHealed
	KindBarrierPoisoned
	KindDump
)

// String names the kind the way bundles spell it.
func (k Kind) String() string {
	switch k {
	case KindShed:
		return "shed"
	case KindRetry:
		return "retry"
	case KindFaultInjected:
		return "fault-injected"
	case KindCorruptionHealed:
		return "corruption-healed"
	case KindBarrierPoisoned:
		return "barrier-poisoned"
	case KindDump:
		return "dump"
	default:
		return "unknown"
	}
}

// event is one fixed-size ring slot; site is expected to be a constant
// string at call sites so recording never allocates.
type event struct {
	at    int64 // wall clock, unix nanoseconds
	kind  Kind
	site  string
	key   uint64
	trace obs.TraceID
}

// shard is one lock-split slice of the event ring.
type shard struct {
	mu   sync.Mutex
	buf  []event
	next uint64
	_    [40]byte
}

// Config sizes and wires a Recorder.
type Config struct {
	// Capacity is the total event-ring size (slots); <1 selects 4096.
	Capacity int
	// Window bounds how far back events and spans reach in a bundle;
	// <=0 selects 30s.
	Window time.Duration
	// Registry supplies the metrics snapshot (process registry when nil)
	// and receives the recorder's own counters.
	Registry *obs.Registry
	// Dir, when non-empty, receives one JSON file per triggered dump.
	Dir string
	// MinGap rate-limits triggered dumps; <=0 selects 5s. On-demand
	// WriteBundle calls are never limited.
	MinGap time.Duration
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use and safe on a nil receiver (the disabled recorder).
type Recorder struct {
	cfg      Config
	shards   []shard
	mask     uint32
	reg      *obs.Registry
	lastDump atomic.Int64 // unix nanos of the last triggered dump

	lmu        sync.Mutex
	lastBundle []byte

	tsdb atomic.Pointer[tsdb.DB]

	events     *obs.Counter
	dumps      *obs.Counter
	suppressed *obs.Counter
}

// New builds a recorder from cfg (see Config for defaults).
func New(cfg Config) *Recorder {
	if cfg.Capacity < 1 {
		cfg.Capacity = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Metrics()
	}
	nshards := 1
	for nshards < 2*runtime.GOMAXPROCS(0) && nshards < 16 {
		nshards *= 2
	}
	per := cfg.Capacity / nshards
	if per < 16 {
		per = 16
	}
	r := &Recorder{
		cfg:    cfg,
		shards: make([]shard, nshards),
		mask:   uint32(nshards - 1),
		reg:    cfg.Registry,
		events: cfg.Registry.Counter("flightrec_events_total", "Incidents recorded by the flight recorder."),
		dumps:  cfg.Registry.Counter("flightrec_dumps_total", "Postmortem bundles written by the flight recorder."),
		suppressed: cfg.Registry.Counter("flightrec_dumps_suppressed_total",
			"Triggered dumps suppressed by the MinGap rate limit."),
	}
	for i := range r.shards {
		r.shards[i].buf = make([]event, per)
	}
	return r
}

// AttachTSDB points the recorder at an embedded time-series store; the
// next bundle embeds that store's window. Nil detaches; nil-safe on a
// nil recorder.
func (r *Recorder) AttachTSDB(db *tsdb.DB) {
	if r != nil {
		r.tsdb.Store(db)
	}
}

// Event records one incident. Nil-safe and allocation-free: the event
// is copied into a preallocated ring slot. site should be a constant
// string; key disambiguates instances (a cache key word, a run index).
func (r *Recorder) Event(kind Kind, site string, key uint64, trace obs.TraceID) {
	if r == nil {
		return
	}
	h := uint32((key*0x9E3779B97F4A7C15)>>32) + uint32(kind)
	sh := &r.shards[h&r.mask]
	sh.mu.Lock()
	sh.buf[sh.next%uint64(len(sh.buf))] = event{
		at: time.Now().UnixNano(), kind: kind, site: site, key: key, trace: trace,
	}
	sh.next++
	sh.mu.Unlock()
	r.events.Inc()
}

// EventRecord is the exported (bundle/test-facing) view of one incident.
type EventRecord struct {
	At    time.Time   `json:"at"`
	Kind  string      `json:"kind"`
	Site  string      `json:"site,omitempty"`
	Key   uint64      `json:"key,omitempty"`
	Trace obs.TraceID `json:"trace,omitempty"`
}

// Events returns the buffered incidents inside the window, oldest
// first.
func (r *Recorder) Events() []EventRecord {
	if r == nil {
		return nil
	}
	cut := time.Now().Add(-r.cfg.Window).UnixNano()
	var out []EventRecord
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := sh.next
		if n > uint64(len(sh.buf)) {
			n = uint64(len(sh.buf))
		}
		for j := uint64(0); j < n; j++ {
			e := sh.buf[j]
			if e.at < cut {
				continue
			}
			out = append(out, EventRecord{
				At: time.Unix(0, e.at), Kind: e.kind.String(),
				Site: e.site, Key: e.key, Trace: e.trace,
			})
		}
		sh.mu.Unlock()
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []EventRecord) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].At.Before(evs[j-1].At); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// SpanRecord is the bundle view of one tracer record.
type SpanRecord struct {
	Subsys  string         `json:"subsys"`
	Lane    uint32         `json:"lane"`
	Cat     string         `json:"cat"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns,omitempty"`
	Instant bool           `json:"instant,omitempty"`
	Trace   obs.TraceID    `json:"trace,omitempty"`
	Span    obs.SpanID     `json:"span,omitempty"`
	Parent  obs.SpanID     `json:"parent,omitempty"`
	Args    map[string]any `json:"args,omitempty"`
}

// ProfileRecord is one pprof snapshot shipped inside a bundle. Data is
// the profile exactly as the runtime emits it (gzipped protobuf), so
// base64-decoding the JSON field yields a file `go tool pprof` opens
// directly; File names the sidecar copy when the bundle went to disk.
type ProfileRecord struct {
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	At     time.Time `json:"at"`
	Reason string    `json:"reason"`
	File   string    `json:"file,omitempty"`
	Data   []byte    `json:"data,omitempty"`
}

// Bundle is the self-contained postmortem document.
type Bundle struct {
	Reason   string          `json:"reason"`
	At       time.Time       `json:"at"`
	Trace    obs.TraceID     `json:"trace,omitempty"`
	WindowNS int64           `json:"window_ns"`
	Build    map[string]any  `json:"build"`
	Events   []EventRecord   `json:"events"`
	Metrics  []obs.Family    `json:"metrics"`
	Spans    []SpanRecord    `json:"spans,omitempty"`
	Profiles []ProfileRecord `json:"profiles,omitempty"`
	// TSDB is the embedded time-series window around the trigger: every
	// sampled series' history across the bundle window, so a postmortem
	// carries its own before/after curves without an external store.
	TSDB []tsdb.SeriesDump `json:"tsdb,omitempty"`
}

// buildBundle assembles the postmortem document.
func (r *Recorder) buildBundle(reason string, trace obs.TraceID) Bundle {
	b := Bundle{
		Reason:   reason,
		At:       time.Now(),
		Trace:    trace,
		WindowNS: int64(r.cfg.Window),
		Build: map[string]any{
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"maxprocs":   runtime.GOMAXPROCS(0),
			"goroutines": runtime.NumGoroutine(),
		},
		Events:  r.Events(),
		Metrics: r.reg.Gather(),
	}
	if b.Events == nil {
		b.Events = []EventRecord{}
	}
	if t := obs.Default(); t != nil {
		recs := obs.WindowRecords(t.Records(), time.Since(t.Epoch()), r.cfg.Window)
		b.Spans = make([]SpanRecord, 0, len(recs))
		for _, rec := range recs {
			b.Spans = append(b.Spans, SpanRecord{
				Subsys: obs.PIDName(rec.PID), Lane: rec.TID,
				Cat: rec.Cat, Name: rec.Name,
				StartNS: int64(rec.Start), DurNS: int64(rec.Dur),
				Instant: rec.Phase == 'i',
				Trace:   rec.Trace, Span: rec.SpanID, Parent: rec.Parent,
				Args: rec.Args,
			})
		}
	}
	// When the continuous profiler is installed, every postmortem ships
	// with profiles: fresh instant snapshots plus the latest CPU window
	// from the profiling ring. Disabled profiler → nil → no profiles.
	for _, s := range prof.Active().CaptureTrigger("flightrec-" + reason) {
		b.Profiles = append(b.Profiles, ProfileRecord{
			Seq: s.Seq, Kind: s.Kind, At: s.At, Reason: s.Reason, Data: s.Data,
		})
	}
	// Attached TSDB → embed the surrounding window. DumpWindow is
	// nil-safe, so a detached store costs one atomic load.
	if db := r.tsdb.Load(); db != nil {
		to := b.At.UnixMilli()
		b.TSDB = db.DumpWindow(to-r.cfg.Window.Milliseconds(), to)
	}
	return b
}

// WriteBundle writes a bundle to w on demand (never rate-limited, does
// not count as a triggered dump). Nil-safe: a nil recorder writes
// nothing and reports an error.
func (r *Recorder) WriteBundle(w io.Writer, reason string, trace obs.TraceID) error {
	if r == nil {
		return fmt.Errorf("flightrec: no recorder installed")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.buildBundle(reason, trace))
}

// Trigger records a dump incident and writes a postmortem bundle,
// rate-limited to one per MinGap (suppressed triggers only bump a
// counter). The bundle is retained in memory (LastBundle) and, when
// Dir is configured, written to a timestamped JSON file. Returns the
// file path ("" when not written to disk).
func (r *Recorder) Trigger(reason string, trace obs.TraceID) string {
	if r == nil {
		return ""
	}
	now := time.Now().UnixNano()
	last := r.lastDump.Load()
	if now-last < int64(r.cfg.MinGap) || !r.lastDump.CompareAndSwap(last, now) {
		r.suppressed.Inc()
		return ""
	}
	r.Event(KindDump, reason, 0, trace)
	b := r.buildBundle(reason, trace)
	base := fmt.Sprintf("flightrec-%d-%s", now, sanitize(reason))
	if r.cfg.Dir != "" {
		// Name the sidecar profile files before marshaling so the JSON
		// bundle references them.
		for i := range b.Profiles {
			b.Profiles[i].File = fmt.Sprintf("%s-%s-%06d.pb.gz", base, b.Profiles[i].Kind, b.Profiles[i].Seq)
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return ""
	}
	r.lmu.Lock()
	r.lastBundle = data
	r.lmu.Unlock()
	r.dumps.Inc()
	if r.cfg.Dir == "" {
		return ""
	}
	path := filepath.Join(r.cfg.Dir, base+".json")
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return ""
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	// Each profile also lands next to the bundle as a ready-to-open
	// .pb.gz, so `go tool pprof <file>` works without extracting the
	// base64 field.
	for _, p := range b.Profiles {
		_ = os.WriteFile(filepath.Join(r.cfg.Dir, p.File), p.Data, 0o644)
	}
	return path
}

// sanitize makes a trigger reason filename-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// LastBundle returns the most recent triggered bundle (nil when none).
func (r *Recorder) LastBundle() []byte {
	if r == nil {
		return nil
	}
	r.lmu.Lock()
	defer r.lmu.Unlock()
	return append([]byte(nil), r.lastBundle...)
}

// Dumps reports how many triggered bundles have been written.
func (r *Recorder) Dumps() int64 {
	if r == nil {
		return 0
	}
	return r.dumps.Value()
}

// active is the process-wide recorder; nil means disabled.
var active atomic.Pointer[Recorder]

// Install makes r the process-wide recorder returned by Active; nil
// uninstalls. Event sites never hold the recorder across calls, so
// installation takes effect at the next incident.
func Install(r *Recorder) {
	active.Store(r)
}

// Active returns the installed recorder, or nil when recording is
// disabled. All Recorder methods are safe on the nil result.
func Active() *Recorder {
	return active.Load()
}

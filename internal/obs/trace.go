package obs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// maxArgs bounds the per-record argument count; arguments past the
// bound are dropped rather than allocated (the trace stays valid).
const maxArgs = 5

// argKind says how a record's arg value renders.
type argKind uint8

const (
	argInt   argKind = iota // int64
	argStr                  // interned string ID
	argHex32                // uint32 rendered as 8 lowercase hex digits
	argTrace                // TraceID: high half here, low half in the next slot
	argCont                 // the low half of the preceding argTrace
)

// record is one fixed-size trace entry in a shard's ring. It holds no
// pointers: strings are intern-table IDs and arg values are a compact
// union, so the runtime allocates the ring as memory the GC never scans
// and pages it in only as records are written. TestRecordLayout pins
// both properties.
type record struct {
	ph        byte // 'X' complete span, 'i' instant event
	nargs     uint8
	cat, name uint16 // intern IDs
	keys      [maxArgs]uint16
	kinds     [maxArgs]argKind
	pid, tid  uint32
	ts, dur   int64   // nanoseconds since the tracer epoch
	trace     TraceID // request correlation; zero = uncorrelated
	span      SpanID  // this record's own span ID (0 when untraced)
	parent    SpanID  // parent span within the trace (0 = root)
	vals      [maxArgs]uint64
}

// shard is one lock-split slice of the ring buffer. Writers hash to a
// shard by lane, so threads/ranks on different lanes never contend.
// The padding makes a shard one 64-byte cache line, so neighbouring
// shards' locks never share one.
type shard struct {
	mu   sync.Mutex
	buf  []record
	next uint64 // total records ever written; index = next % len(buf)
	_    [24]byte
}

// Tracer records spans and instant events into per-lane ring buffers.
// The zero value is not usable; construct with NewTracer. All methods
// are safe for concurrent use and safe on a nil receiver (the disabled
// tracer).
type Tracer struct {
	epoch  time.Time
	shards []shard
	mask   uint32
	names  *internTable
}

// DefaultCapacity is the ring capacity (total records) used by the CLI
// wiring. At 120 bytes a record the ring reserves 30 MiB, which the
// process pays in resident memory only as records fill it.
const DefaultCapacity = 1 << 18

// NewTracer builds a tracer whose ring holds about capacity records
// (rounded up by shard granularity); the oldest records are overwritten
// when a shard's slice fills. capacity < 1 selects DefaultCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	nshards := 1
	for nshards < 2*runtime.GOMAXPROCS(0) && nshards < 64 {
		nshards *= 2
	}
	per := capacity / nshards
	if per < 16 {
		per = 16
	}
	t := &Tracer{
		epoch:  time.Now(),
		shards: make([]shard, nshards),
		mask:   uint32(nshards - 1),
		names:  newInternTable(),
	}
	for i := range t.shards {
		t.shards[i].buf = make([]record, per)
	}
	return t
}

// now is the current timestamp relative to the tracer epoch. time.Since
// reads the monotonic clock, so spans are immune to wall-clock jumps.
func (t *Tracer) now() int64 {
	return int64(time.Since(t.epoch))
}

// push appends one record to the lane's shard, overwriting the oldest
// record if the shard is full. No allocation: the record is copied into
// a preallocated slot.
func (t *Tracer) push(r *record) {
	sh := &t.shards[(r.pid*0x9E37+r.tid)&t.mask]
	sh.mu.Lock()
	sh.buf[sh.next%uint64(len(sh.buf))] = *r
	sh.next++
	sh.mu.Unlock()
}

// Span is an in-progress span (or a pending instant event) under
// construction. It is a plain value: arguments attach by rebinding
// (sp = sp.Int(...)), and nothing is recorded until End or Emit. The
// zero Span — what a nil Tracer returns — is an inert no-op.
type Span struct {
	t *Tracer
	r record
}

// Span opens a span on the given subsystem (pid) and lane (tid),
// starting now. Close it with End. Safe on a nil tracer: the returned
// zero Span ignores every method.
func (t *Tracer) Span(pid, tid uint32, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, r: record{pid: pid, tid: tid, ts: t.now(),
		cat: t.names.id(cat), name: t.names.id(name)}}
}

// SpanAt opens a span at an explicit timestamp on a virtual timeline —
// pisim's cycle-accurate core schedules — closed with EndAt.
func (t *Tracer) SpanAt(pid, tid uint32, cat, name string, start time.Duration) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, r: record{pid: pid, tid: tid, ts: int64(start),
		cat: t.names.id(cat), name: t.names.id(name)}}
}

// arg claims the next n arg slots under key; ok is false (and the
// arg dropped) when the span is inert or the slots are taken.
func (s *Span) arg(key string, n int) (i int, ok bool) {
	i = int(s.r.nargs)
	if s.t == nil || i+n > maxArgs {
		return 0, false
	}
	s.r.keys[i] = s.t.names.id(key)
	s.r.nargs += uint8(n)
	return i, true
}

// Int attaches an integer argument (dropped when the span is inert or
// already carries maxArgs arguments).
func (s Span) Int(key string, v int64) Span {
	if i, ok := s.arg(key, 1); ok {
		s.r.kinds[i], s.r.vals[i] = argInt, uint64(v)
	}
	return s
}

// Str attaches a string argument. The value is interned: once the
// tracer's intern table is full, a string not already in it records as
// "(overflow)".
func (s Span) Str(key, v string) Span {
	if i, ok := s.arg(key, 1); ok {
		s.r.kinds[i], s.r.vals[i] = argStr, uint64(s.t.names.id(v))
	}
	return s
}

// Hex32 attaches v as a string argument of 8 lowercase hex digits — an
// abbreviated content key, without interning one string per key.
func (s Span) Hex32(key string, v uint32) Span {
	if i, ok := s.arg(key, 1); ok {
		s.r.kinds[i], s.r.vals[i] = argHex32, uint64(v)
	}
	return s
}

// Link attaches another trace's ID as a string argument in its 32-hex
// form; it takes two of the span's maxArgs slots.
func (s Span) Link(key string, id TraceID) Span {
	if i, ok := s.arg(key, 2); ok {
		s.r.kinds[i], s.r.vals[i] = argTrace, binary.BigEndian.Uint64(id[:8])
		s.r.kinds[i+1], s.r.vals[i+1] = argCont, binary.BigEndian.Uint64(id[8:])
	}
	return s
}

// Trace joins the span to a request trace: it records under tc.Trace
// with tc.Parent as its parent and allocates its own span ID (so
// TraceCtx can hand children a deeper parent). No-op on an inert span
// or a zero trace.
func (s Span) Trace(tc TraceContext) Span {
	if s.t == nil || tc.Trace.IsZero() {
		return s
	}
	s.r.trace = tc.Trace
	s.r.parent = tc.Parent
	s.r.span = newSpanID()
	return s
}

// TraceCtx returns the correlation state children of this span should
// adopt: same trace, this span as parent. Zero when the span is
// untraced.
func (s Span) TraceCtx() TraceContext {
	if s.r.trace.IsZero() {
		return TraceContext{}
	}
	return TraceContext{Trace: s.r.trace, Parent: s.r.span}
}

// ID returns the span's own ID within its trace (0 when untraced).
func (s Span) ID() SpanID { return s.r.span }

// StartSpan opens a span correlated with the context's trace (if any)
// and returns a derived context in which this span is the parent —
// the one-liner each layer uses to both record itself and hand its
// children the right lineage. With a nil tracer or an uncorrelated
// context it degrades gracefully: the span is inert or plain, and the
// context comes back unchanged.
func (t *Tracer) StartSpan(ctx context.Context, pid, tid uint32, cat, name string) (Span, context.Context) {
	sp := t.Span(pid, tid, cat, name)
	if t == nil {
		return sp, ctx
	}
	tc, ok := TraceFromContext(ctx)
	if !ok || tc.Trace.IsZero() {
		return sp, ctx
	}
	sp = sp.Trace(tc)
	return sp, ContextWithTrace(ctx, sp.TraceCtx())
}

// End records the span with its real elapsed time. No-op on an inert
// span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.r.ph, s.r.dur = 'X', s.t.now()-s.r.ts
	s.t.push(&s.r)
}

// EndAt records the span with an explicit duration on its virtual
// timeline (the SpanAt counterpart of End).
func (s Span) EndAt(dur time.Duration) {
	if s.t == nil {
		return
	}
	s.r.ph, s.r.dur = 'X', int64(dur)
	s.t.push(&s.r)
}

// Emit records the span's start point as an instant event instead of a
// span — for moments (a message send, a broken barrier) rather than
// intervals.
func (s Span) Emit() {
	if s.t == nil {
		return
	}
	s.r.ph = 'i'
	s.t.push(&s.r)
}

// Record is one exported trace entry (the test- and tool-facing view of
// the internal ring).
type Record struct {
	Phase    byte // 'X' span, 'i' instant
	PID, TID uint32
	Start    time.Duration // since the tracer epoch (virtual for pisim lanes)
	Dur      time.Duration
	Cat      string
	Name     string
	Trace    TraceID // zero when the record is uncorrelated
	SpanID   SpanID
	Parent   SpanID
	Args     map[string]any
}

// Records returns a copy of every buffered record, ordered by start
// time (ties broken by pid then tid for determinism).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.collect(TraceID{})
}

// TraceRecords returns the records correlated with one trace ID, in
// the same deterministic order as Records — the raw material for the
// /debug/trace/{id} span tree.
func (t *Tracer) TraceRecords(id TraceID) []Record {
	if t == nil || id.IsZero() {
		return nil
	}
	return t.collect(id)
}

// collect materializes the buffered records of one trace (every record
// when id is zero), sorted as Records documents. The filter runs on the
// ring before any Record or args map is built.
func (t *Tracer) collect(id TraceID) []Record {
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := min64(sh.next, uint64(len(sh.buf)))
		for j := uint64(0); j < n; j++ {
			if r := &sh.buf[j]; id.IsZero() || r.trace == id {
				out = append(out, t.export(r))
			}
		}
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// export renders one ring record, resolving interned strings and
// decoding each arg's compact form.
func (t *Tracer) export(r *record) Record {
	rec := Record{
		Phase: r.ph, PID: r.pid, TID: r.tid,
		Start: time.Duration(r.ts), Dur: time.Duration(r.dur),
		Cat: t.names.str(r.cat), Name: t.names.str(r.name),
		Trace: r.trace, SpanID: r.span, Parent: r.parent,
	}
	if r.nargs == 0 {
		return rec
	}
	rec.Args = make(map[string]any, r.nargs)
	for k := 0; k < int(r.nargs); k++ {
		var v any
		switch r.kinds[k] {
		case argInt:
			v = int64(r.vals[k])
		case argStr:
			v = t.names.str(uint16(r.vals[k]))
		case argHex32:
			v = fmt.Sprintf("%08x", uint32(r.vals[k]))
		case argTrace:
			var id TraceID
			binary.BigEndian.PutUint64(id[:8], r.vals[k])
			binary.BigEndian.PutUint64(id[8:], r.vals[k+1])
			v = id.String()
		default: // argCont, consumed with its argTrace
			continue
		}
		rec.Args[t.names.str(r.keys[k])] = v
	}
	return rec
}

// Epoch returns the wall-clock instant span timestamps are relative to
// (the flight recorder uses it to window "the last N seconds").
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Evicted reports how many records were overwritten because a shard's
// ring filled; the exporter surfaces it so a truncated trace is never
// mistaken for a complete one.
func (t *Tracer) Evicted() int64 {
	if t == nil {
		return 0
	}
	var evicted int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if over := sh.next - min64(sh.next, uint64(len(sh.buf))); over > 0 {
			evicted += int64(over)
		}
		sh.mu.Unlock()
	}
	return evicted
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// traceEvent is one Chrome trace_event JSON object.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  uint32         `json:"pid"`
	TID  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteTo exports the buffered records as a Chrome trace_event JSON
// object — loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Timestamps are microseconds; each subsystem appears as a named
// process with one track per lane.
func (t *Tracer) Export(w io.Writer) error {
	recs := t.Records()
	events := make([]traceEvent, 0, len(recs)+len(pidNames))
	seen := map[uint32]bool{}
	for _, r := range recs {
		if !seen[r.PID] {
			seen[r.PID] = true
			if name, ok := pidNames[r.PID]; ok {
				events = append(events, traceEvent{
					Name: "process_name", Ph: "M", PID: r.PID,
					Args: map[string]any{"name": name},
				})
			}
		}
		ev := traceEvent{
			Name: r.Name, Cat: r.Cat,
			Ts:  float64(r.Start) / 1e3,
			PID: r.PID, TID: r.TID,
			Args: r.Args,
		}
		if !r.Trace.IsZero() {
			args := make(map[string]any, len(r.Args)+3)
			for k, v := range r.Args {
				args[k] = v
			}
			args["trace"] = r.Trace.String()
			args["span"] = r.SpanID.String()
			if r.Parent != 0 {
				args["parent"] = r.Parent.String()
			}
			ev.Args = args
		}
		switch r.Phase {
		case 'X':
			ev.Ph = "X"
			ev.Dur = float64(r.Dur) / 1e3
		default:
			ev.Ph = "i"
			ev.S = "t"
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []traceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"recorded": len(recs),
			"evicted":  t.Evicted(),
		},
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: trace export: %w", err)
	}
	return nil
}

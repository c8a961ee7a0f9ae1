package obs

import (
	"context"
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

// kv is one span/event argument; int-valued unless isStr.
type kv struct {
	key   string
	str   string
	num   int64
	isStr bool
}

// record is one fixed-size trace entry in a shard's ring.
type record struct {
	ph       byte // 'X' complete span, 'i' instant event
	pid, tid uint32
	ts, dur  int64 // nanoseconds since the tracer epoch
	cat      string
	name     string
	trace    TraceID // request correlation; zero = uncorrelated
	span     SpanID  // this record's own span ID (0 when untraced)
	parent   SpanID  // parent span within the trace (0 = root)
	args     [maxArgs]kv
	nargs    uint8
}

// shard is one lock-split slice of the ring buffer. Writers hash to a
// shard by lane, so threads/ranks on different lanes never contend.
type shard struct {
	mu   sync.Mutex
	buf  []record
	next uint64 // total records ever written; index = next % len(buf)
	_    [40]byte
}

// Tracer records spans and instant events into per-lane ring buffers.
// The zero value is not usable; construct with NewTracer. All methods
// are safe for concurrent use and safe on a nil receiver (the disabled
// tracer).
type Tracer struct {
	epoch  time.Time
	shards []shard
	mask   uint32
}

// DefaultCapacity is the ring capacity (total records) used by the CLI
// wiring; at 344 bytes a record (amd64) the ring preallocates about
// 86 MiB.
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
func (t *Tracer) push(r record) {
	sh := &t.shards[(r.pid*0x9E37+r.tid)&t.mask]
	sh.mu.Lock()
	sh.buf[sh.next%uint64(len(sh.buf))] = r
	sh.next++
	sh.mu.Unlock()
}

// Span is an in-progress span (or a pending instant event) under
// construction. It is a plain value: arguments attach by rebinding
// (sp = sp.Int(...)), and nothing is recorded until End or Emit. The
// zero Span — what a nil Tracer returns — is an inert no-op.
type Span struct {
	t        *Tracer
	pid, tid uint32
	start    int64
	vdur     int64 // explicit duration for virtual-time spans; -1 = real time
	cat      string
	name     string
	trace    TraceID
	id       SpanID
	parent   SpanID
	args     [maxArgs]kv
	nargs    uint8
}

// Span opens a span on the given subsystem (pid) and lane (tid),
// starting now. Close it with End. Safe on a nil tracer: the returned
// zero Span ignores every method.
func (t *Tracer) Span(pid, tid uint32, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, pid: pid, tid: tid, start: t.now(), vdur: -1, cat: cat, name: name}
}

// SpanAt opens a span at an explicit timestamp on a virtual timeline —
// pisim's cycle-accurate core schedules — closed with EndAt.
func (t *Tracer) SpanAt(pid, tid uint32, cat, name string, start time.Duration) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, pid: pid, tid: tid, start: int64(start), vdur: -1, cat: cat, name: name}
}

// Int attaches an integer argument (dropped when the span is inert or
// already carries maxArgs arguments).
func (s Span) Int(key string, v int64) Span {
	if s.t == nil || int(s.nargs) >= maxArgs {
		return s
	}
	s.args[s.nargs] = kv{key: key, num: v}
	s.nargs++
	return s
}

// Str attaches a string argument.
func (s Span) Str(key, v string) Span {
	if s.t == nil || int(s.nargs) >= maxArgs {
		return s
	}
	s.args[s.nargs] = kv{key: key, str: v, isStr: true}
	s.nargs++
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
	s.trace = tc.Trace
	s.parent = tc.Parent
	s.id = newSpanID()
	return s
}

// TraceCtx returns the correlation state children of this span should
// adopt: same trace, this span as parent. Zero when the span is
// untraced.
func (s Span) TraceCtx() TraceContext {
	if s.trace.IsZero() {
		return TraceContext{}
	}
	return TraceContext{Trace: s.trace, Parent: s.id}
}

// ID returns the span's own ID within its trace (0 when untraced).
func (s Span) ID() SpanID { return s.id }

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
	s.t.push(record{ph: 'X', pid: s.pid, tid: s.tid, ts: s.start, dur: s.t.now() - s.start,
		cat: s.cat, name: s.name, trace: s.trace, span: s.id, parent: s.parent,
		args: s.args, nargs: s.nargs})
}

// EndAt records the span with an explicit duration on its virtual
// timeline (the SpanAt counterpart of End).
func (s Span) EndAt(dur time.Duration) {
	if s.t == nil {
		return
	}
	s.t.push(record{ph: 'X', pid: s.pid, tid: s.tid, ts: s.start, dur: int64(dur),
		cat: s.cat, name: s.name, trace: s.trace, span: s.id, parent: s.parent,
		args: s.args, nargs: s.nargs})
}

// Emit records the span's start point as an instant event instead of a
// span — for moments (a message send, a broken barrier) rather than
// intervals.
func (s Span) Emit() {
	if s.t == nil {
		return
	}
	s.t.push(record{ph: 'i', pid: s.pid, tid: s.tid, ts: s.start,
		cat: s.cat, name: s.name, trace: s.trace, span: s.id, parent: s.parent,
		args: s.args, nargs: s.nargs})
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
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := sh.next
		if n > uint64(len(sh.buf)) {
			n = uint64(len(sh.buf))
		}
		for j := uint64(0); j < n; j++ {
			r := sh.buf[j]
			rec := Record{
				Phase: r.ph, PID: r.pid, TID: r.tid,
				Start: time.Duration(r.ts), Dur: time.Duration(r.dur),
				Cat: r.cat, Name: r.name,
				Trace: r.trace, SpanID: r.span, Parent: r.parent,
			}
			if r.nargs > 0 {
				rec.Args = make(map[string]any, r.nargs)
				for k := 0; k < int(r.nargs); k++ {
					if r.args[k].isStr {
						rec.Args[r.args[k].key] = r.args[k].str
					} else {
						rec.Args[r.args[k].key] = r.args[k].num
					}
				}
			}
			out = append(out, rec)
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

// TraceRecords returns the records correlated with one trace ID, in
// the same deterministic order as Records — the raw material for the
// /debug/trace/{id} span tree.
func (t *Tracer) TraceRecords(id TraceID) []Record {
	if t == nil || id.IsZero() {
		return nil
	}
	all := t.Records()
	out := all[:0:0]
	for _, r := range all {
		if r.Trace == id {
			out = append(out, r)
		}
	}
	return out
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

package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// TraceID is a 128-bit request-scoped correlation identifier, the same
// shape W3C Trace Context uses, so one request's journey through
// serve → cache → pool → engine → runtimes reads back as one tree. The
// zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters ("" when unset).
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// MarshalText makes trace IDs render as hex in JSON bundles.
func (id TraceID) MarshalText() ([]byte, error) {
	if id.IsZero() {
		return nil, nil
	}
	dst := make([]byte, 32)
	hex.Encode(dst, id[:])
	return dst, nil
}

// UnmarshalText parses the hex form back (the JSON-bundle round trip);
// empty input yields the zero ID.
func (id *TraceID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*id = TraceID{}
		return nil
	}
	parsed, ok := ParseTraceID(string(b))
	if !ok {
		return fmt.Errorf("obs: malformed trace id %q", b)
	}
	*id = parsed
	return nil
}

// ParseTraceID decodes the 32-hex-character form. A malformed or
// all-zero string reports ok=false.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// SpanID identifies one span within a trace; 0 means "no parent".
type SpanID uint64

// String renders the ID as 16 hex characters, the W3C parent-id width.
func (id SpanID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return hex.EncodeToString(b[:])
}

// TraceContext is the request-scoped correlation state carried through
// context.Context: the trace every span joins plus the span ID new
// spans adopt as their parent.
type TraceContext struct {
	Trace  TraceID
	Parent SpanID
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set); "" when no trace is set.
func (tc TraceContext) Traceparent() string {
	if tc.Trace.IsZero() {
		return ""
	}
	return "00-" + tc.Trace.String() + "-" + tc.Parent.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header
// ("<2 hex version>-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>")
// as the Trace Context spec requires: lowercase hex only, version ff
// forbidden, all-zero trace and parent IDs invalid, and version 00
// exactly 55 bytes. A later version may append fields after another
// dash.
func ParseTraceparent(h string) (TraceContext, bool) {
	if len(h) < 55 || h[:2] == "ff" || len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return TraceContext{}, false
	}
	for i := 0; i < 55; i++ {
		switch c := h[i]; {
		case i == 2 || i == 35 || i == 52:
			if c != '-' {
				return TraceContext{}, false
			}
		case (c < '0' || c > '9') && (c < 'a' || c > 'f'):
			return TraceContext{}, false
		}
	}
	// The loop admitted only lowercase hex, so Decode cannot fail.
	var tc TraceContext
	var parent [8]byte
	hex.Decode(tc.Trace[:], []byte(h[3:35]))
	hex.Decode(parent[:], []byte(h[36:52]))
	tc.Parent = SpanID(binary.BigEndian.Uint64(parent[:]))
	if tc.Trace.IsZero() || tc.Parent == 0 {
		return TraceContext{}, false
	}
	return tc, true
}

// traceCtxKey carries a TraceContext through a context.
type traceCtxKey struct{}

// ContextWithTrace scopes tc to a context subtree. Each layer that
// opens a correlated span re-derives the context so its children adopt
// the new span as parent (see Tracer.StartSpan).
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the context-scoped trace, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// TraceIDFromContext is the event-site convenience: the trace ID alone
// (zero when uncorrelated), with no second return to thread around.
func TraceIDFromContext(ctx context.Context) TraceID {
	tc, _ := TraceFromContext(ctx)
	return tc.Trace
}

// traceSeq drives NewTraceID: a process-unique base drawn once from
// crypto/rand plus an atomic counter, mixed through SplitMix64. IDs are
// unique within and across processes with overwhelming probability
// without paying a rand syscall per request.
var (
	traceSeq  atomic.Uint64
	traceBase [2]uint64
)

func init() {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Degraded mode: counter-only IDs are still unique in-process.
		b = [16]byte{1}
	}
	traceBase[0] = binary.LittleEndian.Uint64(b[0:8])
	traceBase[1] = binary.LittleEndian.Uint64(b[8:16])
}

// mix64 is the SplitMix64 finalizer (the repo's standard mixer).
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewTraceID returns a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	n := traceSeq.Add(1)
	var id TraceID
	binary.BigEndian.PutUint64(id[0:8], mix64(traceBase[0]^n))
	binary.BigEndian.PutUint64(id[8:16], mix64(traceBase[1]+n))
	if id.IsZero() { // astronomically unlikely; keep the non-zero contract
		id[15] = 1
	}
	return id
}

// spanSeq allocates span IDs process-wide; 0 is reserved for "none".
var spanSeq atomic.Uint64

// newSpanID returns a fresh non-zero span ID.
func newSpanID() SpanID { return SpanID(spanSeq.Add(1)) }

// LaneFor folds a trace ID onto a display lane, so every span a request
// emits at one subsystem lands on the same Perfetto track.
func LaneFor(id TraceID) uint32 {
	return uint32(binary.BigEndian.Uint64(id[8:16]) & 0xFF)
}

package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceIDUniqueNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceIDStringRoundTrip(t *testing.T) {
	id := NewTraceID()
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex chars", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	if (TraceID{}).String() != "" {
		t.Error("zero ID should render empty")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("a", 33)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Parent: newSpanID()}
	h := tc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("Traceparent() = %q", h)
	}
	back, ok := ParseTraceparent(h)
	if !ok || back != tc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", h, back, ok, tc)
	}
	if (TraceContext{}).Traceparent() != "" {
		t.Error("zero context should render empty")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := TraceContext{Trace: NewTraceID(), Parent: 7}.Traceparent()
	for name, h := range map[string]string{
		"empty":      "",
		"short":      "00-abc",
		"bad dashes": strings.ReplaceAll(valid, "-", "_"),
		"version ff": "ff" + valid[2:],
		"zero trace": "00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01",
		"bad hex":    "00-" + strings.Repeat("z", 32) + "-" + strings.Repeat("a", 16) + "-01",
		"bad parent": valid[:36] + strings.Repeat("z", 16) + valid[52:],
		// W3C Trace Context strictness.
		"zero parent":                         valid[:36] + strings.Repeat("0", 16) + valid[52:],
		"non-hex flags":                       valid[:53] + "zz",
		"00 with trailing":                    valid + "-extra",
		"00 with extra byte":                  valid + "0",
		"non-hex version":                     "zz" + valid[2:],
		"uppercase trace":                     valid[:3] + strings.ToUpper(valid[3:35]) + valid[35:],
		"uppercase version":                   "0A" + valid[2:],
		"later version, no dash before extra": "cc" + valid[2:] + "x",
	} {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, h)
		}
	}
	// Unknown-but-legal versions parse as long as the 00 layout holds,
	// and may carry further dash-separated fields.
	for _, h := range []string{"cc" + valid[2:], "cc" + valid[2:] + "-extra"} {
		if _, ok := ParseTraceparent(h); !ok {
			t.Errorf("ParseTraceparent(%q) rejected; later versions are accepted per spec", h)
		}
	}
}

// FuzzTraceparent: the parser never panics, and every header it
// accepts renders back (Traceparent) to a header that parses to the
// same context.
func FuzzTraceparent(f *testing.F) {
	valid := TraceContext{Trace: TraceID{1, 2, 3}, Parent: 7}.Traceparent()
	for _, seed := range []string{
		valid, "", "00-abc", "ff" + valid[2:], valid + "-extra", "cc" + valid[2:] + "-extra",
		valid[:36] + strings.Repeat("0", 16) + valid[52:], strings.ToUpper(valid),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if tc.Trace.IsZero() || tc.Parent == 0 {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: %+v", h, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("round trip of %q: %q parsed to %+v, %v; want %+v", h, tc.Traceparent(), back, ok, tc)
		}
	})
}

func TestTraceContextPropagation(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("background context should carry no trace")
	}
	if id := TraceIDFromContext(nil); !id.IsZero() {
		t.Fatal("nil context should yield the zero ID")
	}
	tc := TraceContext{Trace: NewTraceID(), Parent: 42}
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v", got, ok)
	}
	if TraceIDFromContext(ctx) != tc.Trace {
		t.Fatal("TraceIDFromContext mismatch")
	}
}

func TestLaneForStable(t *testing.T) {
	id := NewTraceID()
	if LaneFor(id) != LaneFor(id) {
		t.Fatal("LaneFor must be deterministic")
	}
	if LaneFor(id) > 0xFF {
		t.Fatalf("LaneFor(%s) = %d, want <= 255", id, LaneFor(id))
	}
}

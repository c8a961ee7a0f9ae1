package obs

import (
	"sync/atomic"
	"testing"
)

// BenchmarkSpanDisabled is the hot-path cost of instrumentation when no
// tracer is installed — the price every omp chunk, mpi message, and
// core stage pays in a production run with observability off. The bar
// is 0 allocs/op; the alloc assertion lives in
// TestDisabledSpanFastPathAllocs.
func BenchmarkSpanDisabled(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Default().Span(PIDOMP, 1, "omp", "chunk")
		sp = sp.Int("start", int64(i))
		sp.End()
	}
}

// BenchmarkSpanEnabled is the same path with a live tracer: one ring
// write under a sharded lock.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(1 << 16)
	Install(tr)
	defer Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Default().Span(PIDOMP, 1, "omp", "chunk")
		sp = sp.Int("start", int64(i))
		sp.End()
	}
}

// BenchmarkSpanEnabledParallel exercises the lock splitting: distinct
// lanes hash to distinct shards, so parallel emitters shouldn't
// serialize on one mutex.
func BenchmarkSpanEnabledParallel(b *testing.B) {
	tr := NewTracer(1 << 16)
	Install(tr)
	defer Install(nil)
	b.ReportAllocs()
	var lane atomic.Uint32
	b.RunParallel(func(pb *testing.PB) {
		tid := lane.Add(1)
		for pb.Next() {
			Default().Span(PIDOMP, tid, "omp", "chunk").End()
		}
	})
}

// BenchmarkHistObserveUntraced pins the exemplar feature's cost on the
// common path: an observation with a zero TraceID must behave exactly
// like pre-exemplar Observe — an O(1) bucket index and lock-free
// atomic updates, no time lookup, 0 allocs/op.
func BenchmarkHistObserveUntraced(b *testing.B) {
	h := new(Hist)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveTrace(0.005, TraceID{})
	}
}

// BenchmarkHistObserveTraced is the exemplared path: one timestamp
// lookup plus a fixed-size exemplar store in the landing bucket's
// preallocated slot under the exemplar mutex — still 0 allocs/op.
func BenchmarkHistObserveTraced(b *testing.B) {
	h := new(Hist)
	trace := NewTraceID()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveTrace(0.005, trace)
	}
}

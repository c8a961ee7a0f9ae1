package tsdb

import (
	"math"
	"testing"

	"pblparallel/internal/obs"
)

// BenchmarkTSDBAppend is the gated hot path: steady-state sample
// appends into a preallocated chunk (Reset reuse at the seal
// boundary, exactly what the series does once retention starts
// recycling). The CI gate holds this at 0 allocs/op.
func BenchmarkTSDBAppend(b *testing.B) {
	c := NewChunk(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Len() >= 240 {
			c.Reset()
		}
		c.Append(int64(i)*5000, float64(i%17))
	}
}

// BenchmarkTSDBQuery measures a rate() range query over one hour of
// 5s-cadence history — the /debug/tsdb serving cost.
func BenchmarkTSDBQuery(b *testing.B) {
	db := New(Config{Registry: obs.NewRegistry()})
	for i := int64(0); i < 720; i++ {
		db.AppendSample("requests_total", []obs.Label{{Key: "route", Value: "/compute"}}, "counter", i*5000, float64(i*3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := db.RangeQuery("requests_total", "rate", 0, math.MaxInt64)
		if len(res) != 1 || *res[0].Value == 0 {
			b.Fatal("query returned nothing")
		}
	}
}

package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkIndexPoolNext is the uncontended chunk-claim cost — the
// per-chunk overhead a region adds over a plain loop.
func BenchmarkIndexPoolNext(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 1 << 16 {
		b.StopTimer()
		p := NewIndexPool(1<<16, 1, 1)
		b.StartTimer()
		for {
			_, n := p.Next(0)
			if n == 0 {
				break
			}
		}
	}
}

// BenchmarkStealOverhead measures ParallelIndexed dispatch overhead
// per index with trivial bodies at 4 participants — dominated by
// chunk claims and the steals that rebalance them.
func BenchmarkStealOverhead(b *testing.B) {
	r := New(WithWorkers(4))
	defer r.Close()
	var sink atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		r.ParallelIndexed(context.Background(), 4096, 4, 64, func(i, slot int) {
			sink.Store(int64(i))
		})
	}
}

// BenchmarkCounterInc is SNIPPETS.md snippet 2 for this codebase:
// the same logical counter behind a mutex, a bare atomic, and a
// cache-line-padded atomic, swept across parallelism. The padded
// variant is what the contention pass moved hot engine/obs/serve
// counters to.
func BenchmarkCounterInc(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mutex/par=%d", par), func(b *testing.B) {
			var mu sync.Mutex
			var n int64
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					mu.Lock()
					n++
					mu.Unlock()
				}
			})
			_ = n
		})
		b.Run(fmt.Sprintf("atomic/par=%d", par), func(b *testing.B) {
			// Two adjacent bare atomics sharing a cache line — the
			// layout the engine's run counters had before the contention pass.
			var cs struct{ a, z atomic.Int64 }
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i++; i&1 == 0 {
						cs.a.Add(1)
					} else {
						cs.z.Add(1)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("padded/par=%d", par), func(b *testing.B) {
			var cs struct{ a, z PaddedInt64 }
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i++; i&1 == 0 {
						cs.a.Add(1)
					} else {
						cs.z.Add(1)
					}
				}
			})
		})
	}
}

// BenchmarkIntrospect is the cost of one full runtime snapshot — the
// price GET /debug/sched pays per request. It must stay cheap enough
// to poll at dashboard rates; the gate pins its allocations (one
// per-worker slice) so the introspection surface cannot quietly start
// allocating per worker.
func BenchmarkIntrospect(b *testing.B) {
	r := New(WithWorkers(4))
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := r.Introspect(); snap.Workers != 4 {
			b.Fatal("lost workers")
		}
	}
}

package mega_test

import (
	"context"
	"fmt"
	"testing"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/engine"
	"pblparallel/internal/sched"
)

// BenchmarkMegaRun is the bench workload's 500k-student cohort at one
// and two workers, each on its own runtime under a cancellable context
// as a request's is. The w1/w2 ratio is the speedup the fine-grained
// region delivers; a lock taken per student shows up as w2 ≈ w1.
func BenchmarkMegaRun(b *testing.B) {
	cfg := mega.DefaultConfig(500_000, 1)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			rt := sched.New(sched.WithWorkers(w))
			defer rt.Close()
			e := engine.New(engine.WithWorkers(w), engine.WithRuntime(rt))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mega.Run(ctx, e, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

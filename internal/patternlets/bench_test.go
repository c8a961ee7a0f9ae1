package patternlets

import (
	"fmt"
	"testing"
)

// BenchmarkDivideConquer is one whole patternlet run: a fresh runtime,
// then the 200,000-value quicksort its demo sorts, at 1, 2 and 4
// workers.
func BenchmarkDivideConquer(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep, err := DivideConquer(200_000, workers, 1905); err != nil || !rep.Sorted {
					b.Fatalf("rep %+v, err %v", rep, err)
				}
			}
		})
	}
}

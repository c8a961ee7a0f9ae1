package mega

import (
	"math"
	"testing"

	"pblparallel/internal/fault"
)

// TestNormsSincosMatchesSinCos pins norms' one math.Sincos call bit for
// bit against the separate math.Cos and math.Sin it replaced, over the
// 10⁶ Box-Muller pairs of a 500k-student cohort (two per student): the
// cohort's output bytes depend on the two being the same function.
func TestNormsSincosMatchesSinCos(t *testing.T) {
	const students = 500_000
	lay := newLayout(DefaultConfig(students, 42))
	for s := 0; s < students; s++ {
		cell, within := lay.cellOf(s)
		key := fault.Mix3(42, uint64(cell), uint64(within))
		for _, i := range []uint64{0, 2} {
			z1, z2 := norms(key, i)
			u1 := unit(splitmix64(key + (i+1)*gamma))
			u2 := unit(splitmix64(key + (i+2)*gamma))
			r := math.Sqrt(-2 * math.Log(u1))
			w1, w2 := r*math.Cos(2*math.Pi*u2), r*math.Sin(2*math.Pi*u2)
			if math.Float64bits(z1) != math.Float64bits(w1) || math.Float64bits(z2) != math.Float64bits(w2) {
				t.Fatalf("student %d draw %d: Sincos pair (%v, %v), Cos/Sin pair (%v, %v)", s, i, z1, z2, w1, w2)
			}
		}
	}
}

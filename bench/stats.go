package bench

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of tail percentiles a timing may report, in
// per-mille, highest first.
var tailLadder = []int{990, 900, 500}

// tailPerMille returns the highest percentile on the ladder that has at
// least ten of n samples beyond it (p99 from n=1000, p90 from n=100),
// in per-mille. ok is false when even the median lacks ten samples
// beyond it; the median is returned then.
func tailPerMille(n int) (pm int, ok bool) {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return p, true
		}
	}
	return 500, false
}

// percentile returns the nearest-rank percentile pm (per-mille) of
// sorted samples, or 0 for none.
func percentile(sorted []time.Duration, pm int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*pm + 999) / 1000
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// mean returns the arithmetic mean of d, or 0 for none.
func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// median returns the median of d (sorting a copy), or 0 for none.
func median(d []time.Duration) time.Duration {
	return percentile(sortDurations(append([]time.Duration(nil), d...)), 500)
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so a spread computed here matches one computed
// with Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is a/b, or 0 when b is 0, so that an empty window reports a
// number JSON can carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms and us convert a duration to a float in that unit.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

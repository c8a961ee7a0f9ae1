package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"pblparallel/internal/sched"
)

// scrape is the daemon's own account of itself at one instant: its
// /metrics exposition, its scheduler snapshot, and its CPU time.
type scrape struct {
	series map[string]float64 // `name{labels}` → value
	sched  sched.Snapshot
	cpu    time.Duration
}

func takeScrape(ctx context.Context, cl *client, pid int) (*scrape, error) {
	prom, err := cl.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	sj, err := cl.get(ctx, "/debug/sched")
	if err != nil {
		return nil, err
	}
	s := &scrape{series: parseProm(prom)}
	if err := json.Unmarshal(sj, &s.sched); err != nil {
		return nil, err
	}
	s.cpu, err = cpuTime(pid)
	return s, err
}

// parseProm reads the Prometheus text format into series → value.
func parseProm(b []byte) map[string]float64 {
	m := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum totals every series of family name, across its labels.
func (s *scrape) sum(name string) float64 {
	var t float64
	for k, v := range s.series {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// buckets sums family name's cumulative buckets across labels other
// than le, sorted by bound.
func (s *scrape) buckets(name string) []bucket {
	by := make(map[float64]float64)
	for k, v := range s.series {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue
		}
		by[le] += v
	}
	out := make([]bucket, 0, len(by))
	for le, c := range by {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// bucketDelta is after's buckets minus before's.
func bucketDelta(before, after []bucket) []bucket {
	prev := make(map[float64]float64, len(before))
	for _, b := range before {
		prev[b.le] = b.count
	}
	out := make([]bucket, len(after))
	for i, b := range after {
		out[i] = bucket{b.le, b.count - prev[b.le]}
	}
	return out
}

// bucketQuantile estimates quantile q from cumulative buckets by
// linear interpolation inside the bucket it falls in, as Prometheus's
// histogram_quantile does. A quantile in the +Inf bucket reads as the
// highest finite bound; no observations read as 0.
func bucketQuantile(q float64, bs []bucket) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

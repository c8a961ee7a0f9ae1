package tsdb

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"pblparallel/internal/obs"
)

// Query evaluation over the store: counter-reset-aware increase() and
// rate(), gauge averaging, and histogram quantile-over-time. These are
// the primitives GET /debug/tsdb serves and the SLO engine's budgets
// are computed from.

// IncreaseSamples computes how much a counter grew across the run,
// tolerating resets (a daemon restart zeroes every counter): a drop is
// treated as a reset, and the post-reset value counts in full.
func IncreaseSamples(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	var inc float64
	for i := 1; i < len(samples); i++ {
		if d := samples[i].V - samples[i-1].V; d >= 0 {
			inc += d
		} else {
			inc += samples[i].V
		}
	}
	return inc
}

// RateSamples is IncreaseSamples divided by the observed span, in
// per-second units; 0 when fewer than two samples cover the window.
func RateSamples(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	spanSec := float64(samples[len(samples)-1].T-samples[0].T) / 1000
	if spanSec <= 0 {
		return 0
	}
	return IncreaseSamples(samples) / spanSec
}

// AvgSamples is the arithmetic mean — the gauge aggregation.
func AvgSamples(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s.V
	}
	return sum / float64(len(samples))
}

// SeriesData is one series' answer to a range query: the raw window
// plus the scalar the requested function reduced it to.
type SeriesData struct {
	Series  string   `json:"series"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples,omitempty"`
	Value   *float64 `json:"value,omitempty"`
}

// RangeQuery evaluates fn ("", "raw", "rate", "increase", "avg") over
// [from, to] for every series in the named family. An empty or "raw"
// fn returns the samples alone; otherwise each series also carries its
// reduced Value. Unknown families return an empty slice.
func (db *DB) RangeQuery(name, fn string, from, to int64) []SeriesData {
	infos := db.Select(name, nil)
	out := make([]SeriesData, 0, len(infos))
	for _, info := range infos {
		samples := db.SamplesBetween(info.Key, from, to)
		sd := SeriesData{Series: info.Key, Type: info.Type, Samples: samples}
		switch fn {
		case "", "raw":
		case "rate":
			v := RateSamples(samples)
			sd.Value = &v
		case "increase":
			v := IncreaseSamples(samples)
			sd.Value = &v
		case "avg":
			v := AvgSamples(samples)
			sd.Value = &v
		}
		out = append(out, sd)
	}
	return out
}

// QuantileOverTime estimates the q-quantile (0..1) of a histogram
// family's observations inside [from, to], per label set. It groups
// the family's _bucket series by their labels minus le, computes each
// bucket's increase over the window, and interpolates inside the
// winning bucket the way Prometheus' histogram_quantile does.
func (db *DB) QuantileOverTime(name string, q float64, from, to int64) []SeriesData {
	groups := map[string][]obs.Bucket{}
	for _, info := range db.Select(name+"_bucket", nil) {
		le := LabelValue(info.Labels, "le")
		bound, err := parseLE(le)
		if err != nil {
			continue
		}
		gkey := keyWithoutLE(info.Key, le)
		inc := IncreaseSamples(db.SamplesBetween(info.Key, from, to))
		groups[gkey] = append(groups[gkey], obs.Bucket{UpperBound: bound, CumulativeCount: uint64(inc)})
	}
	order := make([]string, 0, len(groups))
	for gkey := range groups {
		order = append(order, gkey)
	}
	sort.Strings(order)
	out := make([]SeriesData, 0, len(order))
	for _, gkey := range order {
		bs := groups[gkey]
		sort.Slice(bs, func(i, j int) bool { return bs[i].UpperBound < bs[j].UpperBound })
		v := obs.BucketQuantile(q, bs)
		out = append(out, SeriesData{Series: gkey, Type: "histogram", Value: &v})
	}
	return out
}

// parseLE reverses formatLE.
func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// keyWithoutLE strips the le label pair from a rendered series key,
// producing the grouping identity shared by a histogram's buckets.
func keyWithoutLE(key, le string) string {
	pair := `le="` + le + `"`
	switch {
	case strings.Contains(key, ","+pair):
		return strings.Replace(key, ","+pair, "", 1)
	case strings.Contains(key, "{"+pair+","):
		return strings.Replace(key, pair+",", "", 1)
	case strings.Contains(key, "{"+pair+"}"):
		return strings.Replace(key, "{"+pair+"}", "", 1)
	}
	return key
}

// SeriesDump is one series' window copy inside a DumpWindow snapshot —
// the shape flight-recorder bundles embed.
type SeriesDump struct {
	Series  string   `json:"series"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples"`
}

// DumpWindow copies every series' samples inside [from, to]
// (milliseconds), sorted by series key, skipping series the window
// doesn't touch. This is the postmortem payload: small enough to embed
// in a bundle, complete enough to reconstruct the before/after curves.
func (db *DB) DumpWindow(from, to int64) []SeriesDump {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	keys := make([]string, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	db.mu.RUnlock()
	sort.Strings(keys)
	out := make([]SeriesDump, 0, len(keys))
	for _, k := range keys {
		s := db.lookup(k)
		if s == nil {
			continue
		}
		samples := s.samplesBetween(from, to)
		if len(samples) == 0 {
			continue
		}
		out = append(out, SeriesDump{Series: k, Type: s.typ, Samples: samples})
	}
	return out
}

// CountsOverWindow sums increase() across every series of a counter
// family whose labels pass match — the SLO engine's "how many requests
// / how many errors in this window" primitive.
func (db *DB) CountsOverWindow(name string, match func(labels []obs.Label) bool, from, to int64) float64 {
	var total float64
	for _, info := range db.Select(name, match) {
		total += IncreaseSamples(db.SamplesBetween(info.Key, from, to))
	}
	return total
}

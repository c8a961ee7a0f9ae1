package tsdb

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pblparallel/internal/obs"
)

// Config sizes and wires a DB. The zero value is usable: every field
// has a serving default.
type Config struct {
	// Interval is the sampling cadence the caller's clock drives
	// SampleOnce at, reported by /debug/tsdb; <=0 selects 5s.
	Interval time.Duration
	// Retention bounds how far back samples reach; <=0 selects 1h.
	// Sealed chunks whose newest sample falls outside the window are
	// dropped whenever their series seals another chunk.
	Retention time.Duration
	// Registry is sampled each tick and receives the store's own
	// tsdb_* instruments; nil selects the process registry.
	Registry *obs.Registry
	// ChunkSamples is the per-chunk seal threshold; <=0 selects 240
	// (20 minutes of history per chunk at the 5s default cadence).
	ChunkSamples int
	// MaxSeries bounds the store against label-cardinality blowups;
	// <=0 selects 4096. Past the bound, new series are counted in
	// tsdb_series_dropped_total and otherwise ignored.
	MaxSeries int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Retention <= 0 {
		c.Retention = time.Hour
	}
	if c.Registry == nil {
		c.Registry = obs.Metrics()
	}
	if c.ChunkSamples <= 0 {
		c.ChunkSamples = 240
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 4096
	}
	return c
}

// series is one named timeline: a head chunk receiving appends and the
// sealed history behind it.
type series struct {
	name   string
	labels []obs.Label
	key    string // rendered name{k="v",...}
	typ    string // "counter" or "gauge" semantics (buckets/counts are counters)

	mu     sync.Mutex
	head   *Chunk
	sealed []*Chunk // oldest first
	lastT  int64
}

// append adds one sample under the series lock. The hot path is the
// chunk append — zero allocations; sealing swaps in a chunk recycled
// from the retention trim when one is available.
func (s *series) append(t int64, v float64, chunkSamples int, retainMS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t <= s.lastT && s.head != nil && s.head.Len() > 0 {
		// Queries want strictly increasing timestamps per series; a
		// same-millisecond resample is dropped rather than encoded out
		// of order.
		return
	}
	if s.head == nil {
		s.head = NewChunk(16 + 2*chunkSamples)
	}
	if s.head.Len() >= chunkSamples {
		var recycled *Chunk
		// Trim history that has aged out, recycling the newest trimmed
		// chunk as the next head so steady state reuses buffers.
		cut := t - retainMS
		for len(s.sealed) > 0 && s.sealed[0].MaxT() < cut {
			recycled = s.sealed[0]
			s.sealed = s.sealed[1:]
		}
		s.sealed = append(s.sealed, s.head)
		if recycled != nil {
			recycled.Reset()
			s.head = recycled
		} else {
			s.head = NewChunk(16 + 2*chunkSamples)
		}
	}
	s.head.Append(t, v)
	s.lastT = t
}

// samplesBetween copies the series' samples with from <= T <= to,
// oldest first.
func (s *series) samplesBetween(from, to int64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Sample
	collect := func(c *Chunk) {
		if c == nil || c.Len() == 0 || c.MaxT() < from || c.MinT() > to {
			return
		}
		it := c.Iter()
		for it.Next() {
			if sm := it.At(); sm.T >= from && sm.T <= to {
				out = append(out, sm)
			}
		}
	}
	for _, c := range s.sealed {
		collect(c)
	}
	collect(s.head)
	return out
}

// DB is the embedded store. Construct with New; the caller's clock
// (obs.Clock) drives SampleOnce at the configured interval.
type DB struct {
	cfg Config
	reg *obs.Registry

	mu     sync.RWMutex
	series map[string]*series

	samples       *obs.Counter
	seriesDropped *obs.Counter
	seriesGauge   *obs.Gauge
}

// New builds a DB from cfg (see Config for defaults). The store's own
// instruments land in the sampled registry, so the TSDB records its
// own ingestion rate like any other subsystem.
func New(cfg Config) *DB {
	cfg = cfg.withDefaults()
	return &DB{
		cfg:    cfg,
		reg:    cfg.Registry,
		series: make(map[string]*series),
		samples: cfg.Registry.Counter("tsdb_samples_appended_total",
			"Samples appended to the embedded time-series store."),
		seriesDropped: cfg.Registry.Counter("tsdb_series_dropped_total",
			"Series rejected by the MaxSeries cardinality bound."),
		seriesGauge: cfg.Registry.Gauge("tsdb_series",
			"Series currently tracked by the embedded time-series store."),
	}
}

// Interval reports the sampling cadence the DB was built with.
func (db *DB) Interval() time.Duration { return db.cfg.Interval }

// Retention reports the configured history bound.
func (db *DB) Retention() time.Duration { return db.cfg.Retention }

// SampleOnce gathers the registry once and appends every scalar it can
// see at the given instant: counters and gauges as themselves,
// histograms exploded into _sum, _count, and per-le _bucket series.
// The daemon's clock calls it on every tick; tests call it at pinned
// times.
func (db *DB) SampleOnce(now time.Time) {
	if db == nil {
		return
	}
	t := now.UnixMilli()
	for _, f := range db.reg.Gather() {
		switch f.Type {
		case "counter", "gauge":
			for _, p := range f.Points {
				db.appendPoint(f.Name, p.Labels, f.Type, t, p.Value)
			}
		case "histogram":
			for _, p := range f.Points {
				db.appendPoint(f.Name+"_sum", p.Labels, "counter", t, p.Sum)
				db.appendPoint(f.Name+"_count", p.Labels, "counter", t, float64(p.Count))
				for _, b := range p.Buckets {
					db.appendBucket(f.Name+"_bucket", p.Labels, b, t)
				}
			}
		}
	}
}

// AppendSample feeds one hand-built observation — the test ingest
// path (the sampler uses the same series machinery).
func (db *DB) AppendSample(name string, labels []obs.Label, typ string, t int64, v float64) {
	db.appendPoint(name, labels, typ, t, v)
}

// appendPoint routes one scalar to its series, creating it on first
// sight (bounded by MaxSeries).
func (db *DB) appendPoint(name string, labels []obs.Label, typ string, t int64, v float64) {
	key := renderKey(name, labels, "", "")
	s := db.lookup(key)
	if s == nil {
		s = db.create(key, name, labels, typ)
		if s == nil {
			return // cardinality bound hit
		}
	}
	s.append(t, v, db.cfg.ChunkSamples, db.cfg.Retention.Milliseconds())
	db.samples.Inc()
}

// appendBucket routes one histogram bucket, adding the le label.
func (db *DB) appendBucket(name string, labels []obs.Label, b obs.Bucket, t int64) {
	le := formatLE(b.UpperBound)
	key := renderKey(name, labels, "le", le)
	s := db.lookup(key)
	if s == nil {
		withLE := make([]obs.Label, 0, len(labels)+1)
		withLE = append(withLE, labels...)
		withLE = append(withLE, obs.Label{Key: "le", Value: le})
		s = db.create(key, name, withLE, "counter")
		if s == nil {
			return
		}
	}
	s.append(t, float64(b.CumulativeCount), db.cfg.ChunkSamples, db.cfg.Retention.Milliseconds())
	db.samples.Inc()
}

// lookup finds a series under the read lock.
func (db *DB) lookup(key string) *series {
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	return s
}

// create registers a new series, enforcing MaxSeries.
func (db *DB) create(key, name string, labels []obs.Label, typ string) *series {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.series[key]; ok {
		return s
	}
	if len(db.series) >= db.cfg.MaxSeries {
		db.seriesDropped.Inc()
		return nil
	}
	s := &series{name: name, labels: append([]obs.Label(nil), labels...), key: key, typ: typ}
	db.series[key] = s
	db.seriesGauge.Set(float64(len(db.series)))
	return s
}

// renderKey renders the canonical series identity: name{k="v",...},
// with an optional extra label appended (the histogram le). Label
// order is the gatherer's, which every source keeps deterministic.
func renderKey(name string, labels []obs.Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*(len(labels)+1))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatLE renders a bucket bound the way the exposition does.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SeriesInfo identifies one tracked series for selection.
type SeriesInfo struct {
	Key    string
	Name   string
	Labels []obs.Label
	Type   string
}

// Select returns the tracked series with the given family name (or the
// single series whose full key matches exactly), filtered by match
// when non-nil, sorted by key for deterministic rendering.
func (db *DB) Select(name string, match func(labels []obs.Label) bool) []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	out := make([]SeriesInfo, 0, 8)
	for key, s := range db.series {
		if s.name != name && key != name {
			continue
		}
		if match != nil && !match(s.labels) {
			continue
		}
		out = append(out, SeriesInfo{Key: key, Name: s.name, Labels: s.labels, Type: s.typ})
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SamplesBetween copies one series' samples with from <= T <= to
// (milliseconds), oldest first; nil when the series is unknown.
func (db *DB) SamplesBetween(key string, from, to int64) []Sample {
	if db == nil {
		return nil
	}
	s := db.lookup(key)
	if s == nil {
		return nil
	}
	return s.samplesBetween(from, to)
}

// Keys lists every tracked series key, sorted — the /debug/tsdb index.
func (db *DB) Keys() []string {
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
	return keys
}

// Label returns the value of the named label on a series ("" when
// absent) — the selector helper the SLO engine and quantile evaluation
// lean on.
func LabelValue(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/sched"
)

// nowUnixNano stamps exemplars; a var so tests can pin it.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }

// Label is one metric dimension; Point labels are kept ordered so
// renderings are deterministic.
type Label struct {
	Key, Value string
}

// Bucket is one cumulative histogram bucket in a gathered Point.
type Bucket struct {
	UpperBound      float64 // seconds (or the metric's native unit); +Inf allowed
	CumulativeCount uint64
}

// bucketJSON is Bucket's wire form. Every histogram's last bucket has a
// +Inf upper bound, which JSON numbers cannot represent, so non-finite
// bounds cross as the exposition-format strings ("+Inf"/"-Inf"/"NaN").
type bucketJSON struct {
	UpperBound      any    `json:"upper_bound"`
	CumulativeCount uint64 `json:"cumulative_count"`
}

// MarshalJSON keeps gathered families JSON-encodable (the flight
// recorder embeds them in postmortem bundles).
func (b Bucket) MarshalJSON() ([]byte, error) {
	ub := any(b.UpperBound)
	switch {
	case math.IsInf(b.UpperBound, 1):
		ub = "+Inf"
	case math.IsInf(b.UpperBound, -1):
		ub = "-Inf"
	case math.IsNaN(b.UpperBound):
		ub = "NaN"
	}
	return json.Marshal(bucketJSON{UpperBound: ub, CumulativeCount: b.CumulativeCount})
}

// UnmarshalJSON reverses MarshalJSON for bundle round trips.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	b.CumulativeCount = w.CumulativeCount
	switch v := w.UpperBound.(type) {
	case float64:
		b.UpperBound = v
	case string:
		switch v {
		case "+Inf":
			b.UpperBound = math.Inf(1)
		case "-Inf":
			b.UpperBound = math.Inf(-1)
		case "NaN":
			b.UpperBound = math.NaN()
		default:
			return fmt.Errorf("obs: bucket upper_bound %q is not a number", v)
		}
	default:
		return fmt.Errorf("obs: bucket upper_bound %v (%T) is not a number", v, v)
	}
	return nil
}

// Exemplar links one recorded observation to the trace that produced
// it: the raw value, the request's TraceID, and the observation time.
// A zero Trace means "no exemplar". Rendered only by the OpenMetrics
// exposition (`# {trace_id="..."} value ts` after a bucket count), so
// a p99 latency bucket points straight at /debug/trace/{id}.
type Exemplar struct {
	Value float64 `json:"value"`
	Trace TraceID `json:"trace"`
	AtNS  int64   `json:"at_ns"`
}

// Point is one sample of a metric family: a scalar for counters and
// gauges, buckets/sum/count for histograms. Exemplars, when present,
// parallels Buckets (index i is bucket i's most recent traced
// observation; a zero Trace marks an empty slot).
type Point struct {
	Labels    []Label
	Value     float64
	Buckets   []Bucket
	Sum       float64
	Count     uint64
	Exemplars []Exemplar
}

// Family is one named metric with its samples — the exchange format
// between sources (the registry's own instruments, external Gatherers
// like the HTTP status counters) and the renderers.
type Family struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", or "histogram"
	Points []Point
}

// Gatherer contributes metric families at render time. It is how
// subsystems that own their instruments (the HTTP status counters, the
// scheduler ledgers) unify into the registry.
type Gatherer interface {
	GatherMetrics() []Family
}

// GathererFunc adapts a function to the Gatherer interface.
type GathererFunc func() []Family

// GatherMetrics implements Gatherer.
func (f GathererFunc) GatherMetrics() []Family { return f() }

// Counter is a monotonically increasing named value. The count is
// cache-line padded: counters registered together allocate together,
// and hot ones (cache hits, sheds, region forks) are bumped from every
// worker — without padding they false-share lines with their
// registry neighbors (see BenchmarkCounterInc in internal/sched).
type Counter struct {
	help string
	v    sched.PaddedInt64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named value that can go up and down.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Every Hist shares one bucket layout: upper bounds at the powers of two
// from 2^histMinExp s (≈0.95 µs) to 2^histMaxExp s (16 s), then +Inf.
// The ×2 step resolves a ~30 µs cache hit and a multi-second cold run
// alike, and 0.25 s = 2^-2 is an exact bound for the latency SLO.
const (
	histMinExp  = -20
	histMaxExp  = 4
	histBuckets = histMaxExp - histMinExp + 2 // the finite bounds plus +Inf
)

// histBounds are the shared bucket upper bounds, +Inf last.
var histBounds = func() (b [histBuckets]float64) {
	for i := range b {
		b[i] = math.Ldexp(1, histMinExp+i)
	}
	b[histBuckets-1] = math.Inf(1)
	return b
}()

// histIndex maps v to its bucket in O(1), reading the exponent the way
// math.Frexp does. A normal float v is 1.m·2^e: with a zero mantissa v
// is the power of two 2^e, which its own bucket includes (le is
// inclusive); otherwise 2^(e+1) is the nearest bound above it.
func histIndex(v float64) int {
	switch {
	case v <= histBounds[0]:
		return 0
	case !(v <= histBounds[histBuckets-2]): // above 16 s, +Inf and NaN
		return histBuckets - 1
	}
	bits := math.Float64bits(v)
	e := int(bits>>52&0x7ff) - 1023
	if bits&(1<<52-1) != 0 {
		e++
	}
	return e - histMinExp
}

// Hist is the histogram over float64 observations (by convention,
// seconds), on the shared power-of-two layout above. It keeps the
// exact count and sum beside the buckets, so means are exact; quantiles
// are read from the exposed buckets with BucketQuantile. Each bucket
// also keeps its most recent exemplar — an observation stamped with
// the trace that produced it — so the exposition can link latency
// outliers to their span trees. The zero value is an empty histogram.
//
// Observations are lock-free: counts and sum live on atomics. Only
// traced observations take the exemplar mutex.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // float64 bits

	exMu      sync.Mutex
	exemplars [histBuckets]Exemplar
}

// Observe records one value with no exemplar.
func (h *Hist) Observe(v float64) { h.ObserveTrace(v, TraceID{}) }

// ObserveTrace records one value and, when trace is set, stores it as
// the landing bucket's exemplar. The untraced path takes no lock, no
// time lookup and no allocation — the call sites on hot paths pass the
// request's TraceID, which is zero whenever no trace context flowed in.
// The bucket count is bumped last, so a reader that sees it also sees
// the sum it contributed.
func (h *Hist) ObserveTrace(v float64, trace TraceID) {
	i := histIndex(v)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.counts[i].Add(1)
	if !trace.IsZero() {
		e := Exemplar{Value: v, Trace: trace, AtNS: nowUnixNano()}
		h.exMu.Lock()
		h.exemplars[i] = e
		h.exMu.Unlock()
	}
}

// Count is the number of observations.
func (h *Hist) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum is the exact total of the observations.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Point snapshots the histogram as cumulative buckets carrying labels.
func (h *Hist) Point(labels ...Label) Point {
	p := Point{Labels: labels, Sum: h.Sum(), Buckets: make([]Bucket, histBuckets)}
	for i := range h.counts {
		p.Count += h.counts[i].Load()
		p.Buckets[i] = Bucket{UpperBound: histBounds[i], CumulativeCount: p.Count}
	}
	h.exMu.Lock()
	for _, e := range h.exemplars {
		if !e.Trace.IsZero() {
			p.Exemplars = append([]Exemplar(nil), h.exemplars[:]...)
			break
		}
	}
	h.exMu.Unlock()
	return p
}

// BucketQuantile estimates the q-quantile (0..1) of cumulative buckets
// sorted by upper bound, the way Prometheus' histogram_quantile does:
// linear interpolation inside the bucket the rank falls in, from the
// previous bound (0 below the first). A rank in the +Inf bucket reads
// as the highest finite bound; no observations read as 0. q is clamped
// into [0, 1], NaN reading as 0, so the estimate is always finite.
func BucketQuantile(q float64, bs []Bucket) float64 {
	if len(bs) == 0 || bs[len(bs)-1].CumulativeCount == 0 {
		return 0
	}
	if !(q >= 0) {
		q = 0
	}
	q = math.Min(q, 1)
	rank := q * float64(bs[len(bs)-1].CumulativeCount)
	lo, below := 0.0, 0.0
	for _, b := range bs {
		c := float64(b.CumulativeCount)
		if c >= rank {
			switch {
			case math.IsInf(b.UpperBound, 1):
				return lo
			case c == below:
				return b.UpperBound
			}
			return lo + (b.UpperBound-lo)*(rank-below)/(c-below)
		}
		lo, below = b.UpperBound, c
	}
	return lo
}

// Registry holds named instruments and render-time Gatherers. All
// methods are safe for concurrent use; instrument getters are
// idempotent (the same name always returns the same instrument), so
// packages can cache them in variables at init.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histvecs  map[string]*HistVec
	gatherers []Gatherer
	published bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		histvecs: make(map[string]*HistVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{help: help}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{help: help}
		r.gauges[name] = g
	}
	return g
}

// HistVec is one histogram family fanned out over the values of a
// single label (e.g. serve_queue_wait_seconds by route). The family
// renders one labeled Point per member, label values sorted, so the
// exposition is deterministic.
type HistVec struct {
	help     string
	labelKey string
	mu       sync.Mutex
	m        map[string]*Hist
}

// HistogramVec returns the named labeled-histogram family, creating it
// on first use. The label key is fixed at creation; later calls ignore
// the arguments.
func (r *Registry) HistogramVec(name, help, labelKey string) *HistVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histvecs[name]
	if !ok {
		v = &HistVec{help: help, labelKey: labelKey, m: make(map[string]*Hist)}
		r.histvecs[name] = v
	}
	return v
}

// Histogram returns the named unlabeled histogram, creating it on first
// use: a HistogramVec with no label key and one member.
func (r *Registry) Histogram(name, help string) *Hist {
	return r.HistogramVec(name, help, "").With("")
}

// With returns the member histogram for one label value, creating it
// on first use. Call sites with a static label set should cache the
// result; the lookup is a mutex + map hit otherwise.
func (v *HistVec) With(labelValue string) *Hist {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[labelValue]
	if !ok {
		h = new(Hist)
		v.m[labelValue] = h
	}
	return h
}

// snapshotFamily renders the vec as one family under name.
func (v *HistVec) snapshotFamily(name string) Family {
	v.mu.Lock()
	vals := make([]string, 0, len(v.m))
	for val := range v.m {
		vals = append(vals, val)
	}
	members := make([]*Hist, 0, len(vals))
	sort.Strings(vals)
	for _, val := range vals {
		members = append(members, v.m[val])
	}
	v.mu.Unlock()
	f := Family{Name: name, Help: v.help, Type: "histogram"}
	for i, h := range members {
		if v.labelKey == "" {
			f.Points = append(f.Points, h.Point())
			continue
		}
		f.Points = append(f.Points, h.Point(Label{Key: v.labelKey, Value: vals[i]}))
	}
	return f
}

// RegisterGatherer adds a render-time metrics source.
func (r *Registry) RegisterGatherer(g Gatherer) {
	if g == nil {
		return
	}
	r.mu.Lock()
	r.gatherers = append(r.gatherers, g)
	r.mu.Unlock()
}

// Gather snapshots every instrument and gatherer into families sorted
// by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]Family, 0, len(r.counters)+len(r.gauges)+len(r.histvecs))
	for name, c := range r.counters {
		fams = append(fams, Family{Name: name, Help: c.help, Type: "counter",
			Points: []Point{{Value: float64(c.Value())}}})
	}
	for name, g := range r.gauges {
		fams = append(fams, Family{Name: name, Help: g.help, Type: "gauge",
			Points: []Point{{Value: g.Value()}}})
	}
	for name, v := range r.histvecs {
		fams = append(fams, v.snapshotFamily(name))
	}
	gatherers := append([]Gatherer(nil), r.gatherers...)
	r.mu.Unlock()
	for _, g := range gatherers {
		fams = append(fams, g.GatherMetrics()...)
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} with an optional extra label appended
// (the histogram "le").
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	writePair := func(k, v string) {
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writePair(l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		writePair(extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatBound renders a bucket upper bound the way Prometheus does.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Gather() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Type == "histogram" {
				for _, b := range p.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, labelString(p.Labels, "le", formatBound(b.UpperBound)), b.CumulativeCount); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.Name, labelString(p.Labels, "", ""), formatFloat(p.Sum),
					f.Name, labelString(p.Labels, "", ""), p.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, labelString(p.Labels, "", ""), formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a sample value (shortest round-trip form).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OpenMetricsContentType is the content type WriteOpenMetrics renders;
// the /metrics handler serves it when the client's Accept header asks
// for application/openmetrics-text.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// exemplarSuffix renders one OpenMetrics exemplar clause
// (" # {trace_id=\"...\"} value timestamp") or "" when e is unset.
func exemplarSuffix(e Exemplar) string {
	if e.Trace.IsZero() {
		return ""
	}
	ts := strconv.FormatFloat(float64(e.AtNS)/1e9, 'f', 3, 64)
	return " # {trace_id=\"" + e.Trace.String() + "\"} " + formatFloat(e.Value) + " " + ts
}

// WriteOpenMetrics renders every family in the OpenMetrics text format
// (the successor of the Prometheus 0.0.4 exposition): counter metadata
// drops the _total suffix per the spec, histogram buckets carry
// exemplar clauses linking latency outliers to /debug/trace/{id}, and
// the stream is terminated by the mandatory # EOF marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, f := range r.Gather() {
		meta := f.Name
		if f.Type == "counter" {
			meta = strings.TrimSuffix(meta, "_total")
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", meta, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", meta, f.Type); err != nil {
			return err
		}
		for _, p := range f.Points {
			if f.Type == "histogram" {
				for i, b := range p.Buckets {
					var ex string
					if i < len(p.Exemplars) {
						ex = exemplarSuffix(p.Exemplars[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
						f.Name, labelString(p.Labels, "le", formatBound(b.UpperBound)), b.CumulativeCount, ex); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.Name, labelString(p.Labels, "", ""), formatFloat(p.Sum),
					f.Name, labelString(p.Labels, "", ""), p.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, labelString(p.Labels, "", ""), formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// ExpvarFunc returns an expvar.Func whose JSON value is the gathered
// families — the expvar renderer of the registry.
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any {
		type jsonPoint struct {
			Labels  map[string]string `json:"labels,omitempty"`
			Value   *float64          `json:"value,omitempty"`
			Sum     *float64          `json:"sum,omitempty"`
			Count   *uint64           `json:"count,omitempty"`
			Buckets map[string]uint64 `json:"buckets,omitempty"`
		}
		out := make(map[string]any)
		for _, f := range r.Gather() {
			pts := make([]jsonPoint, 0, len(f.Points))
			for _, p := range f.Points {
				jp := jsonPoint{}
				if len(p.Labels) > 0 {
					jp.Labels = make(map[string]string, len(p.Labels))
					for _, l := range p.Labels {
						jp.Labels[l.Key] = l.Value
					}
				}
				if f.Type == "histogram" {
					sum, count := p.Sum, p.Count
					jp.Sum, jp.Count = &sum, &count
					jp.Buckets = make(map[string]uint64, len(p.Buckets))
					for _, b := range p.Buckets {
						jp.Buckets[formatBound(b.UpperBound)] = b.CumulativeCount
					}
				} else {
					v := p.Value
					jp.Value = &v
				}
				pts = append(pts, jp)
			}
			out[f.Name] = pts
		}
		return out
	}
}

// PublishExpvar publishes the registry under the given expvar name
// (idempotent per registry; expvar itself panics on duplicate names, so
// the guard matters for repeated CLI sessions in one process).
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r.ExpvarFunc())
}

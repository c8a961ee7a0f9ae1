// Package slo evaluates declarative service-level objectives against
// the embedded time-series store (internal/obs/tsdb). Each objective
// is an availability or latency target for a serve route; the engine
// computes error-budget burn rates over paired short/long windows and
// fires on the Google-SRE multi-window multi-burn-rate rule: a window
// pair alerts only when BOTH its short and long windows burn budget
// faster than the pair's threshold. The fast pair (5m/1h at 14.4×)
// catches sharp outages in minutes; the slow pair (6h/3d at 1×)
// catches slow leaks without paging on noise.
//
// Two runtime rules, the watchdog checks, ride the same firing and
// trip ledger, over raw series the sampler records: goroutine-leak
// (go_goroutines grows more than LeakGrowth past its value at the
// first evaluation) and sched-stall (the serve scheduler holds queued
// or in-flight work with serve_jobs_completed_total flat across the
// last StallSamples samples). The evaluator reads only the store: the
// daemon's clock samples the registry, then calls Eval with the same
// instant.
//
// Results surface three ways: GET /debug/slo (the evaluator's Status
// snapshot), slo_* metric families on the registry (burn rates,
// firing states, trip counts — which the TSDB then samples, giving
// burn-rate history for free), and an OnTrip hook the daemon points
// at the flight recorder, so every budget trip or runtime anomaly
// ships a postmortem bundle with the surrounding TSDB window embedded.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/tsdb"
)

// Objective is one declarative target.
type Objective struct {
	// Name identifies the objective in statuses, metrics, and trips.
	Name string `json:"name"`
	// Route filters http_requests_total/http_request_duration_seconds
	// by their route label; empty matches every route.
	Route string `json:"route,omitempty"`
	// Kind is "availability" (non-5xx ratio) or "latency" (requests
	// faster than LatencyThreshold).
	Kind string `json:"kind"`
	// Target is the good-event ratio promised, e.g. 0.999.
	Target float64 `json:"target"`
	// LatencyThreshold is the "fast enough" bound in seconds (latency
	// kind only). It should sit on a histogram bucket bound; otherwise
	// the evaluation conservatively rounds up to the next bucket.
	LatencyThreshold float64 `json:"latency_threshold,omitempty"`
}

// WindowRule is one short/long window pair with its burn threshold.
type WindowRule struct {
	Name      string        `json:"name"`
	Short     time.Duration `json:"short"`
	Long      time.Duration `json:"long"`
	Threshold float64       `json:"threshold"`
}

// DefaultWindows is the canonical multi-window pairing: fast 5m/1h at
// 14.4× (2% of a 30-day budget in an hour) and slow 6h/3d at 1×.
func DefaultWindows() []WindowRule {
	return []WindowRule{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4},
		{Name: "slow", Short: 6 * time.Hour, Long: 72 * time.Hour, Threshold: 1},
	}
}

// DefaultSLOs are the serving objectives the daemon arms by default:
// 99.9% availability and 99% of requests faster than 250ms, across
// every route.
func DefaultSLOs() []Objective {
	return []Objective{
		{Name: "availability", Kind: "availability", Target: 0.999},
		{Name: "latency", Kind: "latency", Target: 0.99, LatencyThreshold: 0.25},
	}
}

// The runtime rules' bounds.
const (
	// LeakGrowth: goroutine-leak fires while go_goroutines exceeds its
	// value at the first evaluation by more than this.
	LeakGrowth = 512
	// StallSamples: sched-stall fires when this many consecutive
	// samples show queued or in-flight work and no completions.
	StallSamples = 3
)

// Source supplies windowed event counts and raw series. The production
// implementation is TSDBSource; tests substitute hand-built tables.
type Source interface {
	// RouteCounts returns (total, errors) request counts for the route
	// ("" = all routes) across [from, to] in unix milliseconds.
	RouteCounts(route string, from, to int64) (total, errs float64)
	// RouteSlow returns (total, slow) counts, where slow is requests
	// at or above the threshold in seconds.
	RouteSlow(route string, threshold float64, from, to int64) (total, slow float64)
	// Recent returns up to the last n samples of the unlabeled series
	// name at or before to, oldest first.
	Recent(name string, n int, to int64) []tsdb.Sample
}

// TSDBSource reads windowed counts from the embedded store's
// http_requests_total and http_request_duration_seconds families.
type TSDBSource struct {
	DB *tsdb.DB
}

// RouteCounts implements Source over http_requests_total{route,code}.
func (s TSDBSource) RouteCounts(route string, from, to int64) (total, errs float64) {
	match := func(want5xx bool) func([]obs.Label) bool {
		return func(labels []obs.Label) bool {
			if route != "" && tsdb.LabelValue(labels, "route") != route {
				return false
			}
			if !want5xx {
				return true
			}
			code, err := strconv.Atoi(tsdb.LabelValue(labels, "code"))
			return err == nil && code >= 500
		}
	}
	total = s.DB.CountsOverWindow("http_requests_total", match(false), from, to)
	errs = s.DB.CountsOverWindow("http_requests_total", match(true), from, to)
	return total, errs
}

// RouteSlow implements Source over the latency histogram: total from
// _count, fast from the smallest bucket whose bound covers threshold
// (so an off-bucket threshold errs toward counting requests as slow).
func (s TSDBSource) RouteSlow(route string, threshold float64, from, to int64) (total, slow float64) {
	routeMatch := func(labels []obs.Label) bool {
		return route == "" || tsdb.LabelValue(labels, "route") == route
	}
	total = s.DB.CountsOverWindow("http_request_duration_seconds_count", routeMatch, from, to)

	// Pick the per-series bucket bound: group bucket series by route,
	// keep the smallest le >= threshold for each.
	bests := map[string]float64{}
	infos := s.DB.Select("http_request_duration_seconds_bucket", routeMatch)
	for _, info := range infos {
		le := tsdb.LabelValue(info.Labels, "le")
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue // +Inf never beats a finite bound at or above threshold
		}
		if bound < threshold {
			continue
		}
		r := tsdb.LabelValue(info.Labels, "route")
		if cur, ok := bests[r]; !ok || bound < cur {
			bests[r] = bound
		}
	}
	var fast float64
	for _, info := range infos {
		le := tsdb.LabelValue(info.Labels, "le")
		r := tsdb.LabelValue(info.Labels, "route")
		want, ok := bests[r]
		if !ok || le != formatBound(want) {
			continue
		}
		fast += tsdb.IncreaseSamples(s.DB.SamplesBetween(info.Key, from, to))
	}
	slow = total - fast
	if slow < 0 {
		slow = 0
	}
	return total, slow
}

// Recent implements Source over the store's raw samples, looking back
// at most one default retention.
func (s TSDBSource) Recent(name string, n int, to int64) []tsdb.Sample {
	sm := s.DB.SamplesBetween(name, to-time.Hour.Milliseconds(), to)
	if len(sm) > n {
		sm = sm[len(sm)-n:]
	}
	return sm
}

// formatBound matches tsdb's le rendering for finite bounds.
func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Burn computes one objective's burn rate over a window's counts:
// the observed bad-event ratio divided by the budgeted one (1−target).
// Zero traffic burns nothing — an idle window cannot spend budget.
func Burn(target, total, bad float64) float64 {
	if total <= 0 || target >= 1 {
		return 0
	}
	return (bad / total) / (1 - target)
}

// WindowStatus is one window pair's evaluation for one objective.
type WindowStatus struct {
	Name      string  `json:"name"`
	Threshold float64 `json:"threshold"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Firing    bool    `json:"firing"`
}

// Status is one objective's full evaluation.
type Status struct {
	Objective Objective `json:"objective"`
	// BudgetRemaining is the error budget fraction left over the slow
	// pair's long window: 1 − longBurn (negative once overspent).
	BudgetRemaining float64        `json:"budget_remaining"`
	Windows         []WindowStatus `json:"windows"`
}

// Trip is one rising-edge alert: a window pair crossed its threshold,
// or a runtime rule started firing.
type Trip struct {
	// Rule is "<objective>/<window>" or "watchdog/<check>".
	Rule string `json:"rule"`
	// Reason is the flight-recorder trigger reason:
	// "slo-burn:<objective>:<window> (…)" or "watchdog:<check> (…)".
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
}

// Config wires an Evaluator.
type Config struct {
	// Objectives to evaluate (required).
	Objectives []Objective
	// Source supplies windowed counts and raw series (required).
	Source Source
	// Registry receives the slo_* families; nil selects the process
	// registry.
	Registry *obs.Registry
	// OnTrip, when non-nil, runs on each rising edge (synchronously,
	// on the goroutine calling Eval).
	OnTrip func(Trip)
}

// Evaluator runs the burn-rate and runtime rules. Construct with New;
// Eval evaluates at a given instant.
type Evaluator struct {
	cfg Config

	mu       sync.Mutex
	statuses []Status
	firing   map[string]bool
	trips    map[string]int64
	// goroutineBase is go_goroutines at the first evaluation that saw
	// it; -1 until then.
	goroutineBase float64
}

// New builds an Evaluator and registers its slo_* gatherer.
func New(cfg Config) *Evaluator {
	if cfg.Registry == nil {
		cfg.Registry = obs.Metrics()
	}
	e := &Evaluator{
		cfg:           cfg,
		firing:        make(map[string]bool),
		trips:         make(map[string]int64),
		goroutineBase: -1,
	}
	cfg.Registry.RegisterGatherer(e)
	return e
}

// Eval evaluates every objective over every window pair and the
// runtime rules as of now, updates the firing state (calling OnTrip on
// rising edges), and returns the objective statuses. Trips fire
// outside the evaluator lock. Nil-safe: the disabled engine returns nil.
func (e *Evaluator) Eval(now time.Time) []Status {
	if e == nil {
		return nil
	}
	nowMS := now.UnixMilli()
	statuses := make([]Status, 0, len(e.cfg.Objectives))
	var tripped []Trip

	e.mu.Lock()
	edge := func(rule string, firing bool, reason func() string) {
		if firing && !e.firing[rule] {
			e.trips[rule]++
			tripped = append(tripped, Trip{Rule: rule, Reason: reason(), At: now})
		}
		e.firing[rule] = firing
	}
	for _, obj := range e.cfg.Objectives {
		st := Status{Objective: obj, BudgetRemaining: 1}
		for _, w := range DefaultWindows() {
			ws := WindowStatus{Name: w.Name, Threshold: w.Threshold,
				ShortBurn: e.burnOver(obj, nowMS, w.Short),
				LongBurn:  e.burnOver(obj, nowMS, w.Long),
			}
			ws.Firing = ws.ShortBurn >= w.Threshold && ws.LongBurn >= w.Threshold
			edge(obj.Name+"/"+w.Name, ws.Firing, func() string {
				return fmt.Sprintf("slo-burn:%s:%s (short %.2fx, long %.2fx >= %.2fx)",
					obj.Name, w.Name, ws.ShortBurn, ws.LongBurn, w.Threshold)
			})
			st.Windows = append(st.Windows, ws)
		}
		if n := len(st.Windows); n > 0 {
			st.BudgetRemaining = 1 - st.Windows[n-1].LongBurn
		}
		statuses = append(statuses, st)
	}
	e.evalRuntime(nowMS, edge)
	e.statuses = statuses
	e.mu.Unlock()

	if e.cfg.OnTrip != nil {
		for _, t := range tripped {
			e.cfg.OnTrip(t)
		}
	}
	return statuses
}

// evalRuntime runs the two runtime rules under e.mu.
func (e *Evaluator) evalRuntime(nowMS int64, edge func(rule string, firing bool, reason func() string)) {
	var n, grown float64
	if g := e.cfg.Source.Recent("go_goroutines", 1, nowMS); len(g) == 1 {
		if e.goroutineBase < 0 {
			e.goroutineBase = g[0].V
		}
		n, grown = g[0].V, g[0].V-e.goroutineBase
	}
	edge("watchdog/goroutine-leak", grown > LeakGrowth, func() string {
		return fmt.Sprintf("watchdog:goroutine-leak (%.0f goroutines, %.0f over the %.0f baseline)",
			n, grown, e.goroutineBase)
	})

	queued := e.cfg.Source.Recent("serve_queue_depth", StallSamples, nowMS)
	inFlight := e.cfg.Source.Recent("serve_in_flight_jobs", StallSamples, nowMS)
	done := e.cfg.Source.Recent("serve_jobs_completed_total", StallSamples, nowMS)
	stalled := len(queued) == StallSamples && len(inFlight) == StallSamples && len(done) == StallSamples
	for i := 0; stalled && i < StallSamples; i++ {
		stalled = queued[i].V+inFlight[i].V > 0 && done[i].V == done[0].V
	}
	edge("watchdog/sched-stall", stalled, func() string {
		last := StallSamples - 1
		return fmt.Sprintf("watchdog:sched-stall (%.0f queued, %.0f in flight, no completions across %d samples)",
			queued[last].V, inFlight[last].V, StallSamples)
	})
}

// burnOver computes one objective's burn over [now-window, now].
func (e *Evaluator) burnOver(obj Objective, nowMS int64, window time.Duration) float64 {
	from := nowMS - window.Milliseconds()
	switch obj.Kind {
	case "latency":
		total, slow := e.cfg.Source.RouteSlow(obj.Route, obj.LatencyThreshold, from, nowMS)
		return Burn(obj.Target, total, slow)
	default: // availability
		total, errs := e.cfg.Source.RouteCounts(obj.Route, from, nowMS)
		return Burn(obj.Target, total, errs)
	}
}

// Statuses returns the most recent evaluation (nil before the first).
func (e *Evaluator) Statuses() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statuses
}

// GatherMetrics implements obs.Gatherer: burn rates, firing states,
// and trip counts as slo_* families, in deterministic order.
func (e *Evaluator) GatherMetrics() []obs.Family {
	e.mu.Lock()
	defer e.mu.Unlock()
	burn := obs.Family{Name: "slo_burn_rate", Help: "Error-budget burn rate, by objective, window pair, and span.", Type: "gauge"}
	firing := obs.Family{Name: "slo_window_firing", Help: "Whether a window pair's burn rule or a watchdog check currently fires (1) or not (0).", Type: "gauge"}
	budget := obs.Family{Name: "slo_error_budget_remaining", Help: "Error budget fraction left over the slowest long window.", Type: "gauge"}
	for _, st := range e.statuses {
		objLabel := obs.Label{Key: "objective", Value: st.Objective.Name}
		for _, w := range st.Windows {
			winLabel := obs.Label{Key: "window", Value: w.Name}
			burn.Points = append(burn.Points,
				obs.Point{Labels: []obs.Label{objLabel, winLabel, {Key: "span", Value: "short"}}, Value: w.ShortBurn},
				obs.Point{Labels: []obs.Label{objLabel, winLabel, {Key: "span", Value: "long"}}, Value: w.LongBurn})
		}
		budget.Points = append(budget.Points, obs.Point{Labels: []obs.Label{objLabel}, Value: st.BudgetRemaining})
	}
	// Every rule, burn pair or runtime check, reports its firing state
	// and trip count under its "<objective>/<window>" key.
	trips := obs.Family{Name: "slo_trips_total", Help: "Rising-edge alerts, by objective/window or watchdog/check rule.", Type: "counter"}
	rules := make([]string, 0, len(e.firing))
	for k := range e.firing {
		rules = append(rules, k)
	}
	sort.Strings(rules)
	for _, k := range rules {
		obj, win, _ := strings.Cut(k, "/")
		var f float64
		if e.firing[k] {
			f = 1
		}
		firing.Points = append(firing.Points, obs.Point{
			Labels: []obs.Label{{Key: "objective", Value: obj}, {Key: "window", Value: win}}, Value: f})
		trips.Points = append(trips.Points, obs.Point{Labels: []obs.Label{{Key: "rule", Value: k}}, Value: float64(e.trips[k])})
	}
	return []obs.Family{burn, firing, budget, trips}
}

package slo

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/tsdb"
)

// tableSource is a hand-built Source: fixed per-window counts keyed by
// window length, so each table case pins its budgets exactly.
type tableSource struct {
	counts map[time.Duration][2]float64 // window -> (total, bad)
}

func (s tableSource) window(from, to int64) time.Duration {
	return time.Duration(to-from) * time.Millisecond
}

func (s tableSource) RouteCounts(route string, from, to int64) (float64, float64) {
	c := s.counts[s.window(from, to)]
	return c[0], c[1]
}

func (s tableSource) RouteSlow(route string, threshold float64, from, to int64) (float64, float64) {
	c := s.counts[s.window(from, to)]
	return c[0], c[1]
}

func (tableSource) Recent(string, int, int64) []tsdb.Sample { return nil }

// evalAt is a fixed evaluation instant, far past 3d so window starts
// stay positive.
var evalAt = time.UnixMilli(1_700_000_000_000_000)

func TestBurnRateTable(t *testing.T) {
	// Hand-computed burns for a 99.9% objective over the default
	// windows (fast 5m/1h at 14.4x, slow 6h/3d at 1x): budget is 0.001,
	// so burn = errRatio / 0.001.
	cases := []struct {
		name   string
		counts map[time.Duration][2]float64
		// wantBurn is (fastShort, fastLong, slowShort, slowLong).
		wantBurn  [4]float64
		wantFires []string
	}{
		{
			name: "healthy: 0.01% errors everywhere",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {10000, 1}, time.Hour: {120000, 12},
				6 * time.Hour: {720000, 72}, 72 * time.Hour: {8640000, 864},
			},
			wantBurn: [4]float64{0.1, 0.1, 0.1, 0.1},
		},
		{
			name: "sharp outage: 2% errors now, long window still catching up",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {1000, 20}, time.Hour: {12000, 200},
				6 * time.Hour: {72000, 220}, 72 * time.Hour: {864000, 400},
			},
			// fast short: (20/1000)/0.001 = 20; fast long: (200/12000)/0.001 ≈ 16.67
			wantBurn:  [4]float64{20, 200.0 / 12000 / 0.001, 220.0 / 72000 / 0.001, 400.0 / 864000 / 0.001},
			wantFires: []string{"avail/fast"},
		},
		{
			name: "short spike already over, long window still hot: no fire",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {1000, 0}, time.Hour: {12000, 600},
				6 * time.Hour: {72000, 600}, 72 * time.Hour: {864000, 600},
			},
			wantBurn: [4]float64{0, 50, 600.0 / 72000 / 0.001, 600.0 / 864000 / 0.001},
		},
		{
			name: "slow leak: 0.15% sustained for days trips the slow pair only",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {1000, 1.5}, time.Hour: {12000, 18},
				6 * time.Hour: {72000, 108}, 72 * time.Hour: {864000, 1296},
			},
			wantBurn:  [4]float64{1.5, 1.5, 1.5, 1.5},
			wantFires: []string{"avail/slow"},
		},
		{
			name: "zero traffic burns nothing",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {0, 0}, time.Hour: {0, 0},
				6 * time.Hour: {0, 0}, 72 * time.Hour: {0, 0},
			},
			wantBurn: [4]float64{0, 0, 0, 0},
		},
		{
			name: "total outage: every request failing",
			counts: map[time.Duration][2]float64{
				5 * time.Minute: {300, 300}, time.Hour: {3600, 3600},
				6 * time.Hour: {3600, 3600}, 72 * time.Hour: {3600, 3600},
			},
			wantBurn:  [4]float64{1000, 1000, 1000, 1000},
			wantFires: []string{"avail/fast", "avail/slow"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var trips []Trip
			e := New(Config{
				Objectives: []Objective{{Name: "avail", Kind: "availability", Target: 0.999}},
				Source:     tableSource{counts: tc.counts},
				Registry:   obs.NewRegistry(),
				OnTrip:     func(tr Trip) { trips = append(trips, tr) },
			})
			sts := e.Eval(evalAt)
			if len(sts) != 1 || len(sts[0].Windows) != 2 {
				t.Fatalf("statuses: %+v", sts)
			}
			got := [4]float64{
				sts[0].Windows[0].ShortBurn, sts[0].Windows[0].LongBurn,
				sts[0].Windows[1].ShortBurn, sts[0].Windows[1].LongBurn,
			}
			for i := range got {
				if math.Abs(got[i]-tc.wantBurn[i]) > 1e-9 {
					t.Fatalf("burn[%d] = %v, want %v (all: %v)", i, got[i], tc.wantBurn[i], got)
				}
			}
			var fires []string
			for _, tr := range trips {
				fires = append(fires, tr.Rule)
			}
			if len(fires) != len(tc.wantFires) {
				t.Fatalf("fired %v, want %v", fires, tc.wantFires)
			}
			for i := range fires {
				if fires[i] != tc.wantFires[i] {
					t.Fatalf("fired %v, want %v", fires, tc.wantFires)
				}
			}
			// Budget remaining pins against the slow long burn.
			if want := 1 - tc.wantBurn[3]; math.Abs(sts[0].BudgetRemaining-want) > 1e-9 {
				t.Fatalf("budget remaining = %v, want %v", sts[0].BudgetRemaining, want)
			}
		})
	}
}

func TestTripRisingEdgeOnly(t *testing.T) {
	counts := map[time.Duration][2]float64{
		5 * time.Minute: {100, 100}, time.Hour: {100, 100},
		6 * time.Hour: {100, 100}, 72 * time.Hour: {100, 100},
	}
	var trips int
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Kind: "availability", Target: 0.999}},
		Source:     tableSource{counts: counts},
		Registry:   obs.NewRegistry(),
		OnTrip:     func(Trip) { trips++ },
	})
	e.Eval(evalAt)
	e.Eval(evalAt)
	e.Eval(evalAt)
	if trips != 2 { // both window pairs trip once, then stay firing
		t.Fatalf("trips = %d, want 2 (one rising edge per window pair)", trips)
	}
}

func TestTSDBSourceCounts(t *testing.T) {
	db := tsdb.New(tsdb.Config{Registry: obs.NewRegistry()})
	lbl := func(route, code string) []obs.Label {
		return []obs.Label{{Key: "route", Value: route}, {Key: "code", Value: code}}
	}
	// Two samples per series spanning [0, 60s]: /compute grows 100
	// requests of which 5 became 500s; /healthz grows 50 clean.
	for _, s := range []struct {
		route, code string
		v0, v1      float64
	}{
		{"/compute", "200", 10, 105},
		{"/compute", "500", 1, 6},
		{"/healthz", "200", 0, 50},
	} {
		db.AppendSample("http_requests_total", lbl(s.route, s.code), "counter", 0, s.v0)
		db.AppendSample("http_requests_total", lbl(s.route, s.code), "counter", 60_000, s.v1)
	}
	src := TSDBSource{DB: db}
	total, errs := src.RouteCounts("/compute", 0, 60_000)
	if total != 100 || errs != 5 {
		t.Fatalf("RouteCounts(/compute) = (%v, %v), want (100, 5)", total, errs)
	}
	total, errs = src.RouteCounts("", 0, 60_000)
	if total != 150 || errs != 5 {
		t.Fatalf("RouteCounts(all) = (%v, %v), want (150, 5)", total, errs)
	}
}

func TestTSDBSourceSlow(t *testing.T) {
	db := tsdb.New(tsdb.Config{Registry: obs.NewRegistry()})
	route := []obs.Label{{Key: "route", Value: "/compute"}}
	bucket := func(le string) []obs.Label {
		return append(append([]obs.Label{}, route...), obs.Label{Key: "le", Value: le})
	}
	// 100 requests in-window; 80 under 0.1s, 90 under 0.25s.
	add := func(t0 int64, count, b01, b025, binf float64) {
		db.AppendSample("http_request_duration_seconds_count", route, "counter", t0, count)
		db.AppendSample("http_request_duration_seconds_bucket", bucket("0.1"), "counter", t0, b01)
		db.AppendSample("http_request_duration_seconds_bucket", bucket("0.25"), "counter", t0, b025)
		db.AppendSample("http_request_duration_seconds_bucket", bucket("+Inf"), "counter", t0, binf)
	}
	add(0, 0, 0, 0, 0)
	add(60_000, 100, 80, 90, 100)
	src := TSDBSource{DB: db}

	total, slow := src.RouteSlow("/compute", 0.25, 0, 60_000)
	if total != 100 || slow != 10 {
		t.Fatalf("RouteSlow(0.25) = (%v, %v), want (100, 10)", total, slow)
	}
	// An off-bucket threshold rounds up to the next bound (0.15 → 0.25).
	total, slow = src.RouteSlow("/compute", 0.15, 0, 60_000)
	if total != 100 || slow != 10 {
		t.Fatalf("RouteSlow(0.15) = (%v, %v), want (100, 10)", total, slow)
	}
}

func TestBurnCounterResetAcrossRestart(t *testing.T) {
	// A daemon restart zeroes http_requests_total mid-window; the
	// increase must still count post-restart traffic, not go negative.
	db := tsdb.New(tsdb.Config{Registry: obs.NewRegistry()})
	lbl := []obs.Label{{Key: "route", Value: "/compute"}, {Key: "code", Value: "200"}}
	db.AppendSample("http_requests_total", lbl, "counter", 0, 1000)
	db.AppendSample("http_requests_total", lbl, "counter", 30_000, 1200) // +200
	db.AppendSample("http_requests_total", lbl, "counter", 40_000, 50)   // restart: reset, +50
	db.AppendSample("http_requests_total", lbl, "counter", 60_000, 150)  // +100
	src := TSDBSource{DB: db}
	total, errs := src.RouteCounts("/compute", 0, 60_000)
	if total != 350 || errs != 0 {
		t.Fatalf("counts across restart = (%v, %v), want (350, 0)", total, errs)
	}
}

func TestGatherMetrics(t *testing.T) {
	counts := map[time.Duration][2]float64{
		5 * time.Minute: {100, 100}, time.Hour: {100, 100},
		6 * time.Hour: {100, 100}, 72 * time.Hour: {100, 100},
	}
	reg := obs.NewRegistry()
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Kind: "availability", Target: 0.999}},
		Source:     tableSource{counts: counts},
		Registry:   reg,
	})
	e.Eval(evalAt)
	found := map[string]bool{}
	for _, f := range reg.Gather() {
		found[f.Name] = len(f.Points) > 0
	}
	for _, name := range []string{"slo_burn_rate", "slo_window_firing", "slo_error_budget_remaining", "slo_trips_total"} {
		if !found[name] {
			t.Fatalf("registry missing %s after Eval (got %v)", name, found)
		}
	}
	// The runtime rules report under the same firing family.
	var checks []string
	for _, f := range reg.Gather() {
		if f.Name != "slo_window_firing" {
			continue
		}
		for _, p := range f.Points {
			if tsdb.LabelValue(p.Labels, "objective") == "watchdog" {
				checks = append(checks, tsdb.LabelValue(p.Labels, "window"))
			}
		}
	}
	if fmt.Sprint(checks) != "[goroutine-leak sched-stall]" {
		t.Fatalf("slo_window_firing watchdog checks = %v, want [goroutine-leak sched-stall]", checks)
	}
}

// runtimeHarness evaluates the runtime rules over hand-appended
// samples at a fixed cadence, collecting trip reasons.
type runtimeHarness struct {
	db    *tsdb.DB
	reg   *obs.Registry
	e     *Evaluator
	at    int64
	fired []string
}

func newRuntimeHarness() *runtimeHarness {
	h := &runtimeHarness{db: tsdb.New(tsdb.Config{Registry: obs.NewRegistry()}), reg: obs.NewRegistry()}
	h.e = New(Config{
		Source:   TSDBSource{DB: h.db},
		Registry: h.reg,
		OnTrip:   func(tr Trip) { h.fired = append(h.fired, tr.Reason) },
	})
	return h
}

// step appends one sample per (name, value) pair at the next instant,
// evaluates there, and returns the reasons that tripped.
func (h *runtimeHarness) step(series map[string]float64) []string {
	h.at += 5000
	for name, v := range series {
		h.db.AppendSample(name, nil, "gauge", h.at, v)
	}
	before := len(h.fired)
	h.e.Eval(time.UnixMilli(h.at))
	return h.fired[before:]
}

func TestGoroutineLeakRisingEdge(t *testing.T) {
	h := newRuntimeHarness()
	if got := h.step(nil); len(got) != 0 {
		t.Fatalf("evaluation without a goroutine series fired %v", got)
	}
	goroutines := func(n float64) []string { return h.step(map[string]float64{"go_goroutines": n}) }
	if got := goroutines(10); len(got) != 0 { // the baseline
		t.Fatalf("baseline evaluation fired %v", got)
	}
	if got := goroutines(10 + LeakGrowth); len(got) != 0 {
		t.Fatalf("growth of exactly LeakGrowth fired %v", got)
	}
	got := goroutines(11 + LeakGrowth)
	want := fmt.Sprintf("watchdog:goroutine-leak (%d goroutines, %d over the 10 baseline)", 11+LeakGrowth, 1+LeakGrowth)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("leak evaluation fired %q, want [%q]", got, want)
	}
	if got := goroutines(2000); len(got) != 0 {
		t.Fatalf("still-leaking evaluation re-fired: %v", got)
	}
	goroutines(12) // back under the bound: rearm
	if got := goroutines(2000); len(got) != 1 {
		t.Fatalf("rearmed leak did not re-fire: %v", got)
	}
	if len(h.fired) != 2 {
		t.Fatalf("OnTrip ran %d times, want 2", len(h.fired))
	}
}

func TestSchedStall(t *testing.T) {
	h := newRuntimeHarness()
	sched := func(queued, inFlight, completed float64) []string {
		return h.step(map[string]float64{
			"serve_queue_depth": queued, "serve_in_flight_jobs": inFlight, "serve_jobs_completed_total": completed,
		})
	}
	// Busy but completing, then idle with completions flat: healthy.
	for i := 0; i < 4; i++ {
		if got := sched(2, 1, float64(i)); len(got) != 0 {
			t.Fatalf("progressing scheduler fired %v", got)
		}
	}
	for i := 0; i < StallSamples; i++ {
		if got := sched(0, 0, 3); len(got) != 0 {
			t.Fatalf("idle scheduler fired %v", got)
		}
	}
	// Wedged: work held, no completions. It fires on the StallSamples-th
	// busy sample, once.
	for i := 1; i < StallSamples; i++ {
		if got := sched(1, 1, 3); len(got) != 0 {
			t.Fatalf("stall fired after %d busy samples, want %d", i, StallSamples)
		}
	}
	got := sched(1, 1, 3)
	want := fmt.Sprintf("watchdog:sched-stall (1 queued, 1 in flight, no completions across %d samples)", StallSamples)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("stall evaluation fired %q, want [%q]", got, want)
	}
	if got := sched(1, 1, 3); len(got) != 0 {
		t.Fatalf("stall re-fired without progress: %v", got)
	}
	// Progress rearms; a fresh stall trips again.
	for i := 0; i < StallSamples; i++ {
		sched(1, 1, 4)
	}
	if len(h.fired) != 2 {
		t.Fatalf("OnTrip ran %d times, want 2 (%v)", len(h.fired), h.fired)
	}
}

// TestGatherFamilies checks that the runtime checks report through the
// slo_* families: a goroutine leak sets its firing gauge and counts one
// trip, while the quiet sched-stall check reads 0 on both.
func TestGatherFamilies(t *testing.T) {
	h := newRuntimeHarness()
	h.step(map[string]float64{"go_goroutines": 10})
	if got := h.step(map[string]float64{"go_goroutines": 11 + LeakGrowth}); len(got) != 1 {
		t.Fatalf("leak evaluation fired %v, want one trip", got)
	}
	firing := map[string]float64{}
	trips := map[string]float64{}
	for _, f := range h.reg.Gather() {
		for _, p := range f.Points {
			switch f.Name {
			case "slo_window_firing":
				if tsdb.LabelValue(p.Labels, "objective") == "watchdog" {
					firing[tsdb.LabelValue(p.Labels, "window")] = p.Value
				}
			case "slo_trips_total":
				trips[tsdb.LabelValue(p.Labels, "rule")] = p.Value
			}
		}
	}
	if want := map[string]float64{"goroutine-leak": 1, "sched-stall": 0}; fmt.Sprint(firing) != fmt.Sprint(want) {
		t.Fatalf("slo_window_firing watchdog checks = %v, want %v", firing, want)
	}
	if want := map[string]float64{"watchdog/goroutine-leak": 1, "watchdog/sched-stall": 0}; fmt.Sprint(trips) != fmt.Sprint(want) {
		t.Fatalf("slo_trips_total = %v, want %v", trips, want)
	}
}

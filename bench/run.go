// Package bench is pblbench, the end-to-end benchmark of the pbld
// study daemon. A run builds nothing itself: it execs a pbld binary on
// loopback with production defaults, drives one seeded workload at it
// from this process, checks every response's bytes, and reports the
// daemon's end-to-end metrics, or, on the traced pass, per-layer
// metrics timed from outside the daemon. See README.md.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pblparallel/internal/serve"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics are a run's metrics by name.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) { m[name] = Metric{v, unit} }

// Result is the line a run prints last.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`

	// On tiered, the tier mix of the timed requests as the daemon's
	// X-Cache reported it, and as tierModel predicted it.
	tiers, model tierMix
}

// Options describe one run.
type Options struct {
	Workload string
	Seed     int64
	Duration time.Duration // the timed window
	Trace    bool          // report per-layer metrics instead of end-to-end ones
	Pbld     string        // the pbld binary
	Root     string        // the checkout, for testdata/golden
	Work     string        // scratch space for store directories and trace files
	Sizes    Sizes
	Log      io.Writer // human-readable report
	// Via, when set, maps the daemon's URL to the one traffic is sent
	// to, so a test can put a proxy in between.
	Via func(daemonURL string) string
}

// runner is one run in progress.
type runner struct {
	Options
	plan *plan
	led  *ledger
	res  *Result
}

// Run performs one run. An error means the run could not be made; a
// run that was made but saw a failed request or wrong bytes returns a
// Result with Correct false.
func Run(ctx context.Context, o Options) (*Result, error) {
	p, err := newPlan(o.Workload, o.Seed, o.Sizes)
	if err != nil {
		return nil, err
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Via == nil {
		o.Via = func(u string) string { return u }
	}
	r := &runner{Options: o, plan: p, led: newLedger(), res: &Result{Metrics: Metrics{}}}
	dir := filepath.Join(o.Work, fmt.Sprintf("run-%s-seed%d", o.Workload, o.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	flags := p.flags
	if len(p.persist) > 0 {
		storeDir := filepath.Join(dir, "store")
		if err := r.prep(ctx, storeDir); err != nil {
			return nil, fmt.Errorf("prep daemon: %w", err)
		}
		flags = append(flags, "-cache-dir", storeDir)
	}
	starts := max(o.Sizes.SetupStarts, 1)
	if o.Trace {
		starts = 1
	}
	// The host's speed is measured before each start and after the last,
	// and each set-up is scaled by the speed around it.
	var setups, setupsRaw []time.Duration
	var d *daemon
	var cl *client
	ref := hostSpeed(r.Sizes.RefRounds) // no daemon is running yet
	for j := 0; j < starts; j++ {
		if d != nil {
			cl.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if d, cl, took, err = r.start(ctx, flags, j); err != nil {
			return nil, err
		}
		next, err := r.hostSpeed(d)
		if err != nil {
			cl.close()
			d.kill()
			return nil, err
		}
		setups = append(setups, scaled(took, ref, next))
		setupsRaw = append(setupsRaw, took)
		ref = next
	}
	defer cl.close()
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	if err := sendAll(ctx, cl, p.warm, p.clients, r.led); err != nil {
		return nil, fmt.Errorf("warming keys: %w", err)
	}
	warm := drive(ctx, cl, p, r.led, 0, o.Sizes.Warmup)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", errors.Join(warm.errs...))
	}

	var layerRun func() error
	if o.Trace {
		layerRun, err = r.traced(ctx, d, cl, warm, p.setup(starts-1))
	} else {
		err = r.endToEnd(ctx, d, cl, warm, p.setup(starts-1), setups, setupsRaw)
	}
	if err != nil {
		return nil, err
	}
	r.check(checkGoldens(ctx, cl, o.Root))
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if layerRun != nil {
		if err := layerRun(); err != nil {
			return nil, err
		}
	}
	r.check(checkAll(ctx, r.led, o.Sizes))
	r.res.Correct = r.res.Failed == 0
	r.report()
	return r.res, nil
}

// hostSpeed reads the host's speed (see scaled) with the daemon stopped,
// so that none of its background work (samplers, evaluators, profiler,
// write-behind) competes with the reference work and hides its own cost.
func (r *runner) hostSpeed(d *daemon) (time.Duration, error) {
	var ref time.Duration
	err := d.frozen(func() { ref = hostSpeed(r.Sizes.RefRounds) })
	return ref, err
}

// prep persists the plan's keys into dir with a daemon of their own,
// stopped with SIGTERM so its write-behind queue drains.
func (r *runner) prep(ctx context.Context, dir string) error {
	d, err := startDaemon(r.Pbld, "-cache-dir", dir)
	if err != nil {
		return err
	}
	cl := newClient(r.Via(d.url), 2)
	defer cl.close()
	if err := d.waitReady(ctx, cl.hc); err != nil {
		d.kill()
		return err
	}
	if err := sendAll(ctx, cl, r.plan.persist, 2, r.led); err != nil {
		d.kill()
		return err
	}
	return d.stop()
}

// start execs the daemon and returns once its first computed /v1/run
// answered, with the time that took: one set-up.
func (r *runner) start(ctx context.Context, flags []string, j int) (*daemon, *client, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(r.Pbld, flags...)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(r.Via(d.url), r.plan.clients)
	var buf bytes.Buffer
	var cache string
	if err = d.waitReady(ctx, cl.hc); err == nil {
		cache, err = cl.do(ctx, r.plan.setup(j), r.led, &buf)
	}
	if err == nil && cache != string(serve.CacheMiss) {
		err = fmt.Errorf("first request answered from %q, want a computed miss", cache)
	}
	took := time.Since(t0)
	if err != nil {
		cl.close()
		d.kill()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, cl, took, nil
}

// count adds a timed window's requests and failures to the result.
func (r *runner) count(w *window) {
	r.res.Attempted += len(w.samples)
	r.res.Failed += w.failed
	for _, err := range w.errs {
		fmt.Fprintln(r.Log, "FAIL", err)
	}
}

// check adds byte checks made outside the timed window to the result.
func (r *runner) check(n int, errs []error) {
	r.res.Attempted += n
	r.res.Failed += len(errs)
	for _, err := range errs {
		fmt.Fprintln(r.Log, "FAIL", err)
	}
}

// endToEnd times the workload with nothing but the generator running.
// The window is cut into slices with the host's speed measured around
// each, and the slice's times are scaled by it (see scaled). The same
// metrics unscaled go to the log, on a line of their own that -record
// keeps beside the result.
func (r *runner) endToEnd(ctx context.Context, d *daemon, cl *client, warm *window, setup call, setups, setupsRaw []time.Duration) error {
	pid := d.cmd.Process.Pid
	var lat, raw []time.Duration
	var windows []*window
	var cpu, cpuRaw, elapsed, elapsedAdj time.Duration
	attempted, good, next := 0, 0, warm.next
	ref, err := r.hostSpeed(d)
	if err != nil {
		return err
	}
	refs := []time.Duration{ref}
	slices := max(r.Sizes.Slices, 1)
	for s := 0; s < slices; s++ {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return err
		}
		w := drive(ctx, cl, r.plan, r.led, next, r.Duration/time.Duration(slices))
		cpu1, err := cpuTime(pid)
		if err != nil {
			return err
		}
		after, err := r.hostSpeed(d)
		if err != nil {
			return err
		}
		refs = append(refs, after)
		r.count(w)
		next, attempted = w.next, attempted+len(w.samples)
		for _, l := range w.oks() {
			lat = append(lat, scaled(l, ref, after))
			raw = append(raw, l)
			if l <= goodLatency {
				good++
			}
		}
		windows = append(windows, w)
		cpu += scaled(cpu1-cpu0, ref, after)
		cpuRaw += cpu1 - cpu0
		elapsed += w.elapsed
		elapsedAdj += scaled(w.elapsed, ref, after)
		ref = after
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return err
	}
	sortDurations(lat)
	sortDurations(raw)
	pm, _ := tailPerMille(len(lat))
	elapsedRaw := elapsed
	if r.plan.rate == 0 {
		// A closed loop's rate follows the host's speed; an open loop's
		// is set by its schedule.
		elapsed = elapsedAdj
	}
	m := r.res.Metrics
	m.set("setup_s", "s", median(setups).Seconds())
	m.set("p50_ms", "ms", ms(percentile(lat, 500)))
	m.set("p90_ms", "ms", ms(percentile(lat, 900)))
	m.set("throughput_rps", "req/s", float64(len(lat))/elapsed.Seconds())
	m.set("goodput_ratio", "ratio", ratio(float64(good), float64(attempted)))
	m.set("cpu_ms_per_req", "ms", ratio(ms(cpu), float64(len(lat))))
	m.set("rss_mb", "MB", float64(rss)/(1<<20))
	unscaled := Metrics{}
	unscaled.set("setup_s", "s", median(setupsRaw).Seconds())
	unscaled.set("p50_ms", "ms", ms(percentile(raw, 500)))
	unscaled.set("p90_ms", "ms", ms(percentile(raw, 900)))
	unscaled.set("throughput_rps", "req/s", float64(len(raw))/elapsedRaw.Seconds())
	unscaled.set("cpu_ms_per_req", "ms", ratio(ms(cpuRaw), float64(len(raw))))

	// p90 is the reported tail: on a shared host a p99 moved by up to 30%
	// between runs, with stalls that hit one run and not the next. The
	// highest percentile with ten samples beyond it is printed beside it.
	fmt.Fprintf(r.Log, "# %s seed %d: %d requests in %d slices; p%g %.4g ms\n", r.Workload, r.Seed, attempted, slices,
		float64(pm)/10, ms(percentile(lat, pm)))
	if len(lat) < 100 {
		fmt.Fprintf(r.Log, "# fewer than 10 samples beyond p90\n")
	}
	fmt.Fprintf(r.Log, "# host reference work took %v (nominal %v)\n", refs, refNominal)
	line, err := json.Marshal(unscaled)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Log, "%s%s\n", UnscaledPrefix, line)
	if r.plan.rate > 0 {
		fmt.Fprintf(r.Log, "# generator lag p99 %.3f ms (a run above 10 ms is invalid)\n", ms(lagP99(windows...)))
	}
	if len(r.plan.persist) > 0 {
		r.checkTiers(setup, warm, windows)
	}
	return nil
}

// UnscaledPrefix starts the log line that carries a run's end-to-end
// metrics before host-speed scaling, as a JSON object.
const UnscaledPrefix = "# unscaled "

// mix renders a window's X-Cache counts.
func mix(w *window) string {
	n := make(map[string]int)
	for _, s := range w.samples {
		if s.ok {
			n[s.cache]++
		}
	}
	var parts []string
	for k, v := range n {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// traced runs the workload for the window, reading the daemon's
// counters around it, then times memory hits one at a time. The
// returned function, run once the daemon has stopped, times the layers
// in-process and reports every per-layer metric.
func (r *runner) traced(ctx context.Context, d *daemon, cl *client, warm *window, hot call) (func() error, error) {
	pid := d.cmd.Process.Pid
	sp := newSpanLog()
	wall0 := time.Now()
	s0, err := takeScrape(ctx, cl, pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	w := drive(ctx, cl, r.plan, r.led, warm.next, r.Duration)
	self1 := selfCPU()
	s1, err := takeScrape(ctx, cl, pid)
	if err != nil {
		return nil, err
	}
	wall := time.Since(wall0)
	r.count(w)
	if len(r.plan.persist) > 0 {
		r.checkTiers(hot, warm, []*window{w})
	}
	// The client spans are made from the samples once the window has
	// closed, so keeping them costs the timed requests nothing.
	for _, s := range w.samples {
		sp.add(pidClient, s.client, "client", kindPath[r.plan.at(0).kind], w.t0.Add(s.start), s.lat, "x-cache", s.cache)
	}

	// Memory hits one at a time: the daemon's whole hit path plus
	// loopback HTTP, with nothing queued beside it.
	var buf bytes.Buffer
	if _, err := cl.do(ctx, hot, r.led, &buf); err != nil {
		return nil, err
	}
	rtts := make([]time.Duration, 0, r.Sizes.ProbeCalls)
	for i := 0; i < r.Sizes.ProbeCalls; i++ {
		start := time.Now()
		cache, err := cl.do(ctx, hot, r.led, &buf)
		rtts = append(rtts, time.Since(start))
		sp.add(pidProbe, 2, "serve", "round trip", start, rtts[i])
		if err != nil || cache != string(serve.CacheHit) {
			return nil, fmt.Errorf("round-trip probe: X-Cache %q: %v", cache, err)
		}
	}

	req := float64(len(w.samples))
	delta := func(name string) float64 { return s1.sum(name) - s0.sum(name) }
	qb := bucketDelta(s0.buckets("serve_queue_wait_seconds"), s1.buckets("serve_queue_wait_seconds"))
	var queue time.Duration
	if n := delta("serve_queue_wait_seconds_count"); n > 0 {
		queue = time.Duration(delta("serve_queue_wait_seconds_sum") / n * 1e9)
	}
	out := r.res.Metrics
	out.set("serve.queue_wait_ms_p50", "ms", 1000*bucketQuantile(0.5, qb))
	out.set("serve.queue_wait_ms_p99", "ms", 1000*bucketQuantile(0.99, qb))
	out.set("serve.mem_hit_ratio", "ratio", ratio(delta("serve_cache_hits_total"), req))
	out.set("serve.coalesced_ratio", "ratio", ratio(delta("serve_cache_coalesced_total"), req))
	out.set("serve.shed_ratio", "ratio", ratio(delta("serve_shed_total"), req))
	out.set("store.disk_hit_ratio", "ratio", ratio(delta("store_disk_hits_total"), req))
	out.set("store.puts", "count", delta("store_disk_puts_total"))
	out.set("store.healed", "count", delta("store_corruptions_healed_total"))
	out.set("sched.steals_per_req", "count/req", ratio(float64(s1.sched.Steals-s0.sched.Steals), req))
	out.set("sched.range_steals_per_req", "count/req", ratio(float64(s1.sched.RangeSteals-s0.sched.RangeSteals), req))
	out.set("sched.parks_per_req", "count/req", ratio(float64(s1.sched.Parks-s0.sched.Parks), req))
	out.set("sched.grain_claims_per_req", "count/req", ratio(float64(s1.sched.GrainClaims-s0.sched.GrainClaims), req))
	out.set("sched.cpu_utilization", "ratio", float64(s1.cpu-s0.cpu)/float64(wall)/float64(runtime.NumCPU()))
	out.set("bench.gen_lag_ms_p99", "ms", ms(lagP99(w)))
	out.set("bench.client_cpu_ms_per_req", "ms", ratio(ms(self1-self0), req))

	return func() error {
		conc := r.plan.clients
		if r.plan.rate > 0 {
			conc = 1 // open loop at tiered's rate rarely overlaps two computes
		}
		c, err := probeLayers(ctx, r.Seed, r.Sizes, conc, r.Work, sp, out)
		if err != nil {
			return err
		}
		rtt := mean(rtts)
		out.set("serve.transport_us_p50", "us", us(median(rtts))-out["serve.handler_us_p50"].Value)
		// Each request is attributed the layers its X-Cache status says
		// it passed through, and the open-loop generator's lateness in
		// sending it.
		compute := c.study + c.encode
		switch r.plan.at(0).kind {
		case kindSweep:
			compute = c.sweep
		case kindCohort:
			compute = c.cohort
		}
		var attributed time.Duration
		for _, s := range w.samples {
			switch {
			case !s.ok:
			case s.cache == string(serve.CacheHit):
				attributed += s.lag + rtt
			case s.cache == string(serve.CacheDiskHit):
				attributed += s.lag + rtt + c.storeGet
			default:
				attributed += s.lag + rtt + queue + compute
			}
		}
		lat := w.oks()
		out.set("bench.unattributed_share", "ratio", 1-ratio(float64(attributed), float64(len(lat))*float64(mean(lat))))
		path := filepath.Join(r.Work, fmt.Sprintf("trace-%s-seed%d.json", r.Workload, r.Seed))
		if err := sp.write(path); err != nil {
			return err
		}
		fmt.Fprintf(r.Log, "# %s seed %d traced: %d requests, X-Cache %s; spans in %s\n",
			r.Workload, r.Seed, int(req), mix(w), path)
		return nil
	}, nil
}

// report prints every metric by name with its unit.
func (r *runner) report() {
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		fmt.Fprintf(r.Log, "%-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(r.Log, "# attempted %d, failed %d, correct %t\n", r.res.Attempted, r.res.Failed, r.res.Correct)
}

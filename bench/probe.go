package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/obs"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/serve"
	"pblparallel/internal/store"
)

// costs are the mean per-call costs of the layers a request can pass
// through, as the probes measured them; they attribute a workload's
// end-to-end time to layers.
type costs struct {
	study, encode, storeGet, sweep, cohort time.Duration
}

// runCanonical is the request form pbld hashes into the content address
// of POST /v1/run {"seed":s}.
func runCanonical(seed int64) []byte {
	return []byte(fmt.Sprintf("run|seed=%d|students=124|calibrated=true", seed))
}

// probeLayers times calls into each layer's public functions from this
// process, on the seed's generated inputs: the study pipeline over
// compute's seeds, JSON encoding and the disk tier over the resulting
// bodies, the HTTP handler and the cache on one warmed key, and the
// sweep and cohort engines over their workloads' first requests. The
// tracer is installed as pbld installs it, except while timing the
// untraced handler. conc is how many studies run at once.
func probeLayers(ctx context.Context, seed int64, sz Sizes, conc int, work string, sp *spanLog, out Metrics) (*costs, error) {
	tr := obs.NewTracer(obs.DefaultCapacity)
	obs.Install(tr)
	defer obs.Install(nil)
	var c costs

	// The first study in a fresh process pays calibration; it is timed
	// on its own, then the pipeline stage by stage and the encoding of
	// each outcome.
	compute, err := newPlan(Compute, seed, sz)
	if err != nil {
		return nil, err
	}
	var cold time.Duration
	coldStudy := core.NewStudy(core.WithSeed(compute.at(0).id), core.WithStageObserver(func(stage string, d time.Duration) {
		if stage == core.StageCalibration {
			cold = d
		}
	}))
	sp.time("core", "study (cold)", func() { _, err = coldStudy.Run(ctx) })
	if err != nil {
		return nil, err
	}
	out.set("core.calibration_cold_ms", "ms", ms(cold))

	// Studies run conc at a time, as many as the traced workload has
	// computing at once, so the probe sees the same contention for the
	// cores that the daemon's requests do.
	n := sz.ProbeStudies
	stages := make([]map[string]time.Duration, n)
	studies, encodes := make([]time.Duration, n), make([]time.Duration, n)
	bodies, seeds := make([][]byte, n), make([]int64, n)
	var next atomic.Int64
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[g] == nil; i = int(next.Add(1) - 1) {
				seeds[i], stages[i] = compute.at(i).id, make(map[string]time.Duration)
				study := core.NewStudy(core.WithSeed(seeds[i]), core.WithStageObserver(func(stage string, d time.Duration) {
					stages[i][stage] = d
				}))
				start := time.Now()
				o, err := study.Run(ctx)
				studies[i] = time.Since(start)
				sp.add(pidProbe, 10+g, "core", "study", start, studies[i])
				if err != nil {
					errs[g] = err
					return
				}
				start = time.Now()
				bodies[i], errs[g] = encode(serve.Summarize(seeds[i], true, o))
				encodes[i] = time.Since(start)
				sp.add(pidProbe, 10+g, "encode", "json", start, encodes[i])
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, st := range core.Stages {
		var d []time.Duration
		for i := range stages {
			d = append(d, stages[i][st])
		}
		out.set("core.stage."+st+"_ms_p50", "ms", ms(median(d)))
	}
	out.set("core.study_ms_p50", "ms", ms(median(studies)))
	out.set("encode.json_us_p50", "us", us(median(encodes)))
	c.study, c.encode = mean(studies), mean(encodes)

	if c.storeGet, err = probeStore(ctx, seeds, bodies, filepath.Join(work, "probe-store"), sp, out); err != nil {
		return nil, err
	}
	if err := probeServe(ctx, seeds[0], bodies[0], sz.ProbeCalls, tr, sp, out); err != nil {
		return nil, err
	}

	// One sweep and one cohort warm the process's scheduler and heap
	// first; they are traced but not counted.
	sweep, _ := newPlan(Sweep, seed, sz)
	cohort, _ := newPlan(Cohort, seed, sz)
	var sweeps, cohorts []time.Duration
	for i := 0; i <= sz.ProbeBatches; i++ {
		sweeps = append(sweeps, sp.time("sensitivity", "sweep", func() {
			_, err = sensitivity.RunSweep(ctx, sweep.at(i).id, sz.SweepSeeds, sensitivity.Options{})
		}))
		if err != nil {
			return nil, err
		}
		cohorts = append(cohorts, sp.time("mega", "run", func() {
			_, err = mega.Run(ctx, engine.New(), mega.DefaultConfig(sz.CohortStudents, cohort.at(i).id))
		}))
		if err != nil {
			return nil, err
		}
	}
	sweeps, cohorts = sweeps[1:], cohorts[1:]
	out.set("sensitivity.sweep_ms_p50", "ms", ms(median(sweeps)))
	out.set("mega.run_ms_p50", "ms", ms(median(cohorts)))
	c.sweep, c.cohort = mean(sweeps), mean(cohorts)
	return &c, nil
}

// probeStore writes bodies into a fresh disk tier (Put plus Flush per
// entry), reopens it, and reads every entry back repeatedly. It returns
// the mean Get time.
func probeStore(ctx context.Context, seeds []int64, bodies [][]byte, dir string, sp *spanLog, out Metrics) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opts := store.Options{Registry: obs.NewRegistry()}
	st, err := store.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	keys := make([]store.Key, len(seeds))
	for i, s := range seeds {
		keys[i] = serve.NewKey(runCanonical(s)).DiskKey()
	}
	var puts, opens, gets []time.Duration
	for i, b := range bodies {
		puts = append(puts, sp.time("store", "put+flush", func() {
			st.Put(keys[i], b)
			st.Flush()
		}))
	}
	st.Close()
	for i := 0; i < 3; i++ {
		opens = append(opens, sp.time("store", "open", func() { st, err = store.Open(dir, opts) }))
		if err != nil {
			return 0, err
		}
		if i < 2 {
			st.Close()
		}
	}
	defer st.Close()
	const rounds = 16
	for r := 0; r < rounds; r++ {
		for i, want := range bodies {
			var got []byte
			var ok bool
			gets = append(gets, sp.time("store", "get", func() { got, ok, _ = st.Get(ctx, keys[i]) }))
			if !ok || !bytes.Equal(got, want) {
				return 0, fmt.Errorf("store probe: entry %d read back wrong", i)
			}
		}
	}
	sortDurations(gets)
	out.set("store.put_us_p50", "us", us(median(puts)))
	out.set("store.open_ms", "ms", ms(median(opens)))
	out.set("store.get_us_p50", "us", us(percentile(gets, 500)))
	out.set("store.get_us_p99", "us", us(percentile(gets, 990)))
	return mean(gets), nil
}

// probeServe times the in-process handler on a warmed /v1/run key with
// and without the tracer, then serve.NewKey and a resident Cache.Do.
func probeServe(ctx context.Context, seed int64, body []byte, calls int, tr *obs.Tracer, sp *spanLog, out Metrics) error {
	srv := serve.New(serve.Config{Registry: obs.NewRegistry()})
	defer srv.Close()
	h := srv.Handler()
	req := []byte(fmt.Sprintf(`{"seed":%d}`, seed))
	serveOnce := func(name string) (time.Duration, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(req))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.add(pidProbe, 1, "serve", name, start, d)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), body) {
			return d, fmt.Errorf("handler probe: status %d or bytes differ", w.Code)
		}
		return d, nil
	}
	if _, err := serveOnce("handler miss"); err != nil { // computes the key
		return err
	}
	// Traced and untraced calls alternate in blocks, so drift in the
	// host's speed lands on both.
	var traced, untraced []time.Duration
	const blocks = 10
	for b := 0; b < blocks; b++ {
		obs.Install(tr)
		for i := 0; i < calls/blocks; i++ {
			d, err := serveOnce("handler traced")
			if err != nil {
				return err
			}
			traced = append(traced, d)
		}
		obs.Install(nil)
		for i := 0; i < calls/blocks; i++ {
			d, err := serveOnce("handler untraced")
			if err != nil {
				return err
			}
			untraced = append(untraced, d)
		}
	}
	obs.Install(tr)
	tp, up := median(traced), median(untraced)
	out.set("serve.handler_us_p50", "us", us(tp))
	out.set("serve.handler_untraced_us_p50", "us", us(up))
	out.set("obs.trace_overhead_ratio", "ratio", float64(tp)/float64(up))

	// NewKey and Cache.Do cost well under a microsecond, so they are
	// timed in batches and reported per call.
	const batch = 256
	canonical := runCanonical(seed)
	cache := serve.NewCache(16, nil)
	k := serve.NewKey(canonical)
	if _, _, err := cache.Do(ctx, k, func() ([]byte, error) { return body, nil }); err != nil {
		return err
	}
	var keys, hits []time.Duration
	for b := 0; b < calls/batch+1; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			serve.NewKey(canonical)
		}
		keys = append(keys, time.Since(start)/batch)
		start = time.Now()
		for i := 0; i < batch; i++ {
			if _, st, _ := cache.Do(ctx, k, nil); st != serve.CacheHit {
				return fmt.Errorf("cache probe: status %s on a resident key", st)
			}
		}
		hits = append(hits, time.Since(start)/batch)
	}
	out.set("serve.key_ns", "ns", float64(median(keys)))
	out.set("cache.hit_ns_p50", "ns", float64(median(hits)))
	return nil
}

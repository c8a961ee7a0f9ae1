// Package sensitivity measures how reproducible the paper's findings
// are across resampled cohorts: the study is re-run under many seeds at
// the paper's own n=124 and the distribution of each headline statistic
// is summarized, together with the fraction of samples in which each
// qualitative claim holds. This answers the reproduction-specific
// question the single published sample cannot: how much of what Tables
// 1-6 report is signal, and how much is one draw's luck.
package sensitivity

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/sched"
	"pblparallel/internal/stats"
)

// Summary describes one statistic's distribution over the seeds.
type Summary struct {
	Mean, SD         float64
	Q05, Median, Q95 float64
}

// summarize builds a Summary from raw values. Mean and SD stream
// through the one-pass Moments sketch — the same aggregation stack the
// mega-cohort reduction merges — while the quantiles, which have no
// constant-memory exact form, still read the slice.
func summarize(xs []float64) (Summary, error) {
	m := stats.MomentsOf(xs)
	mean, err := m.MeanValue()
	if err != nil {
		return Summary{}, err
	}
	sd, err := m.StdDev()
	if err != nil {
		return Summary{}, err
	}
	q05, err := stats.Quantile(xs, 0.05)
	if err != nil {
		return Summary{}, err
	}
	med, err := stats.Median(xs)
	if err != nil {
		return Summary{}, err
	}
	q95, err := stats.Quantile(xs, 0.95)
	if err != nil {
		return Summary{}, err
	}
	return Summary{Mean: mean, SD: sd, Q05: q05, Median: med, Q95: q95}, nil
}

// Result is the full sensitivity study.
type Result struct {
	Seeds int
	N     int // cohort size per run
	// Distributions of the headline statistics.
	EmphasisD Summary
	GrowthD   Summary
	EmphasisT Summary
	GrowthT   Summary
	// ClaimRates maps each qualitative claim to the fraction of seeds
	// in which it held.
	ClaimRates map[string]float64
}

// Options tunes how the sweep executes. Execution shape never changes
// the numbers: the engine guarantees the result is identical for any
// worker count.
type Options struct {
	// Workers bounds the engine pool; 0 selects runtime.NumCPU().
	Workers int
	// Metrics, when non-nil, collects per-stage wall-time histograms
	// and run counters across the sweep.
	Metrics *engine.Metrics
	// Retries arms the engine's transient-failure retry layer with
	// Backoff between attempts; 0 disables it. The study service sets
	// this so sweeps stay byte-identical under injected faults.
	Retries int
	Backoff time.Duration
	// Runtime, when non-nil, lends its workers to the sweep's engine
	// instead of the process-default scheduler — the study service
	// passes its admission pool's runtime so one worker set serves the
	// whole daemon. Never closed here.
	Runtime *sched.Runtime
}

// RunSweep executes the study under `seeds` consecutive seeds starting
// at start, collecting distributions. The per-run configuration is the
// paper's except for the seed; zero Options use all CPUs and record no
// metrics. The sweep fans out over the engine's worker pool; the
// aggregation consumes results in seed order, so the Result — and its
// rendering — is byte-identical to a sequential loop for any worker
// count.
func RunSweep(ctx context.Context, start int64, seeds int, opts Options) (*Result, error) {
	if seeds < 3 {
		return nil, fmt.Errorf("sensitivity: need at least 3 seeds, got %d", seeds)
	}
	cfg := core.PaperStudy()
	engOpts := []engine.Option{engine.WithWorkers(opts.Workers), engine.WithMetrics(opts.Metrics)}
	if opts.Retries > 0 {
		engOpts = append(engOpts, engine.WithRetry(opts.Retries, opts.Backoff))
	}
	if opts.Runtime != nil {
		engOpts = append(engOpts, engine.WithRuntime(opts.Runtime))
	}
	eng := engine.New(engOpts...)
	sweep, err := eng.Sweep(ctx, cfg, engine.SequentialSeeds(start), seeds)
	if err != nil {
		return nil, fmt.Errorf("sensitivity: %w", err)
	}
	if err := sweep.FirstErr(); err != nil {
		return nil, fmt.Errorf("sensitivity: %w", err)
	}
	var (
		eds, gds, ets, gts []float64
		claimHits          = map[string]int{}
		claimTotal         int
	)
	for _, run := range sweep.Runs {
		o := run.Outcome
		eds = append(eds, o.Report.Table2.D)
		gds = append(gds, o.Report.Table3.D)
		ets = append(ets, o.Report.Table1.ClassEmphasis.T)
		gts = append(gts, o.Report.Table1.PersonalGrowth.T)
		claimTotal++
		for _, c := range o.Comparison.Shape {
			if c.Holds {
				claimHits[c.Claim]++
			} else if _, seen := claimHits[c.Claim]; !seen {
				claimHits[c.Claim] = 0
			}
		}
	}
	out := &Result{Seeds: seeds, N: cfg.Cohort.NStudents, ClaimRates: map[string]float64{}}
	if out.EmphasisD, err = summarize(eds); err != nil {
		return nil, err
	}
	if out.GrowthD, err = summarize(gds); err != nil {
		return nil, err
	}
	if out.EmphasisT, err = summarize(ets); err != nil {
		return nil, err
	}
	if out.GrowthT, err = summarize(gts); err != nil {
		return nil, err
	}
	for claim, hits := range claimHits {
		out.ClaimRates[claim] = float64(hits) / float64(claimTotal)
	}
	return out, nil
}

// FragileClaims returns the claims holding in fewer than threshold of
// the runs, sorted by rate ascending.
func (r *Result) FragileClaims(threshold float64) []string {
	type cr struct {
		claim string
		rate  float64
	}
	var items []cr
	for claim, rate := range r.ClaimRates {
		if rate < threshold {
			items = append(items, cr{claim, rate})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].rate != items[j].rate {
			return items[i].rate < items[j].rate
		}
		return items[i].claim < items[j].claim
	})
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%s (%.0f%%)", it.claim, 100*it.rate)
	}
	return out
}

// Render writes the sensitivity report.
func (r *Result) Render() string {
	line := func(name string, s Summary) string {
		return fmt.Sprintf("  %-12s mean=%.3f sd=%.3f [q05=%.3f med=%.3f q95=%.3f]\n",
			name, s.Mean, s.SD, s.Q05, s.Median, s.Q95)
	}
	out := fmt.Sprintf("sensitivity across %d seeds at n=%d:\n", r.Seeds, r.N)
	out += line("emphasis d", r.EmphasisD)
	out += line("growth d", r.GrowthD)
	out += line("emphasis t", r.EmphasisT)
	out += line("growth t", r.GrowthT)
	fragile := r.FragileClaims(0.95)
	if len(fragile) == 0 {
		out += "  every qualitative claim holds in >= 95% of samples\n"
	} else {
		out += "  claims below 95% reproducibility:\n"
		for _, f := range fragile {
			out += "    " + f + "\n"
		}
	}
	return out
}

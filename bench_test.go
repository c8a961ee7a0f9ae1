package pblparallel

// The benchmark harness: one benchmark per table and figure in the
// paper's evaluation (Tables 1-6, Figs. 1-2), one per Assignment 5
// timing question (A5-*), one for the Assignment 3 scheduling study
// (A3), and one per design-choice ablation called out in DESIGN.md.
// Each benchmark reports the reproduced quantities through
// b.ReportMetric so `go test -bench` output doubles as the experiment
// log; EXPERIMENTS.md interprets the numbers against the paper.

import (
	"context"
	"io"
	"math"
	"sync"
	"testing"

	"pblparallel/internal/analysis"
	"pblparallel/internal/cohort"
	"pblparallel/internal/core"
	"pblparallel/internal/drugdesign"
	"pblparallel/internal/omp"
	"pblparallel/internal/paperdata"
	"pblparallel/internal/pisim"
	"pblparallel/internal/respond"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/stats"
	"pblparallel/internal/survey"
	"pblparallel/internal/teams"
)

var (
	benchOnce sync.Once
	benchOut  *core.Outcome
	benchErr  error
)

// paperOutcome runs the paper study once per bench process.
func paperOutcome(b *testing.B) *core.Outcome {
	b.Helper()
	benchOnce.Do(func() {
		benchOut, benchErr = core.NewStudy().Run(context.Background())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchOut
}

// --- Tables 1-3: the headline statistics ------------------------------

func BenchmarkTable1TTest(b *testing.B) {
	o := paperOutcome(b)
	emph1 := o.Dataset.Mid.CategoryAverages(survey.ClassEmphasis)
	emph2 := o.Dataset.End.CategoryAverages(survey.ClassEmphasis)
	grow1 := o.Dataset.Mid.CategoryAverages(survey.PersonalGrowth)
	grow2 := o.Dataset.End.CategoryAverages(survey.PersonalGrowth)
	var te, tg stats.TTestResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if te, err = stats.PairedTTest(emph1, emph2); err != nil {
			b.Fatal(err)
		}
		if tg, err = stats.PairedTTest(grow1, grow2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(te.MeanDiff, "emphasis-diff")
	b.ReportMetric(te.T, "emphasis-t")
	b.ReportMetric(tg.MeanDiff, "growth-diff")
	b.ReportMetric(tg.T, "growth-t")
}

func BenchmarkTable2CohensDEmphasis(b *testing.B) {
	o := paperOutcome(b)
	var d stats.CohensDResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		d, err = stats.CohensD(
			o.Dataset.Mid.CategoryAverages(survey.ClassEmphasis),
			o.Dataset.End.CategoryAverages(survey.ClassEmphasis))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.D, "cohens-d")       // paper: 0.50
	b.ReportMetric(d.Mean1, "wave1-mean") // paper: 4.023068
	b.ReportMetric(d.Mean2, "wave2-mean") // paper: 4.124365
}

func BenchmarkTable3CohensDGrowth(b *testing.B) {
	o := paperOutcome(b)
	var d stats.CohensDResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		d, err = stats.CohensD(
			o.Dataset.Mid.CategoryAverages(survey.PersonalGrowth),
			o.Dataset.End.CategoryAverages(survey.PersonalGrowth))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.D, "cohens-d")       // paper: 0.86
	b.ReportMetric(d.Mean1, "wave1-mean") // paper: 3.81
	b.ReportMetric(d.Mean2, "wave2-mean") // paper: 4.01
}

// --- Table 4: per-skill correlations ----------------------------------

func BenchmarkTable4Pearson(b *testing.B) {
	o := paperOutcome(b)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analysis.Run(o.Dataset)
		if err != nil {
			b.Fatal(err)
		}
	}
	edm := rep.Table4[paperdata.EvaluationDecision]
	tw := rep.Table4[paperdata.Teamwork]
	b.ReportMetric(edm.FirstHalf.R, "edm-r-h1")  // paper: 0.73
	b.ReportMetric(edm.SecondHalf.R, "edm-r-h2") // paper: 0.73
	b.ReportMetric(tw.FirstHalf.R, "tw-r-h1")    // paper: 0.38
	b.ReportMetric(tw.SecondHalf.R, "tw-r-h2")   // paper: 0.47
}

// --- Tables 5-6: composite rankings -----------------------------------

func rankingTopGap(items []stats.RankedItem) float64 {
	if len(items) < 2 {
		return 0
	}
	return items[0].Score - items[len(items)-1].Score
}

func BenchmarkTable5EmphasisRanking(b *testing.B) {
	o := paperOutcome(b)
	var tbl map[string]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = o.Dataset.End.CompositeTable(o.Instrument, survey.ClassEmphasis)
		if err != nil {
			b.Fatal(err)
		}
	}
	ranked := stats.Rank(tbl)
	b.ReportMetric(ranked[0].Score, "top-composite") // paper: Teamwork 4.41
	b.ReportMetric(rankingTopGap(ranked), "spread")
	rho, err := stats.SpearmanRho(paperdata.Table5SecondHalf, tbl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rho, "spearman-vs-paper")
}

func BenchmarkTable6GrowthRanking(b *testing.B) {
	o := paperOutcome(b)
	var tbl map[string]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = o.Dataset.End.CompositeTable(o.Instrument, survey.PersonalGrowth)
		if err != nil {
			b.Fatal(err)
		}
	}
	ranked := stats.Rank(tbl)
	b.ReportMetric(ranked[0].Score, "top-composite") // paper: Teamwork 4.33
	b.ReportMetric(rankingTopGap(ranked), "spread")
	rho, err := stats.SpearmanRho(paperdata.Table6SecondHalf, tbl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rho, "spearman-vs-paper")
}

// --- Figures ------------------------------------------------------------

func BenchmarkFig1Timeline(b *testing.B) {
	o := paperOutcome(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Module.RenderTimeline(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(o.Module.Timeline())), "events")
	b.ReportMetric(float64(o.Module.SemesterWeeks), "weeks")
}

func BenchmarkFig2Instrument(b *testing.B) {
	ins := survey.NewBeyerlein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := survey.RenderInstrument(io.Discard, ins); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ins.Elements)), "elements")
	b.ReportMetric(float64(ins.TotalItems()), "items")
}

// --- Assignment 5: the drug-design timing questions --------------------

func a5Machine(b *testing.B) *pisim.Machine {
	b.Helper()
	m, err := pisim.NewMachine(pisim.PaperPi3B())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkA5RuntimeComparison(b *testing.B) {
	m := a5Machine(b)
	p := drugdesign.PaperProblem()
	var rows []drugdesign.VirtualTiming
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = drugdesign.TimingTable(m, p, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Result.Makespan), string(r.Approach)+"-cycles")
	}
	b.ReportMetric(rows[1].SpeedupVsSequential, "omp-speedup")
	b.ReportMetric(rows[2].SpeedupVsSequential, "threads-speedup")
}

func BenchmarkA5FiveThreads(b *testing.B) {
	m := a5Machine(b)
	p := drugdesign.PaperProblem()
	var four, five drugdesign.VirtualTiming
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		four, err = drugdesign.RunVirtual(m, p, drugdesign.OMP, 4)
		if err != nil {
			b.Fatal(err)
		}
		five, err = drugdesign.RunVirtual(m, p, drugdesign.OMP, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(four.Result.Makespan), "4threads-cycles")
	b.ReportMetric(float64(five.Result.Makespan), "5threads-cycles")
	b.ReportMetric(float64(five.Result.Makespan)/float64(four.Result.Makespan), "ratio")
}

func BenchmarkA5LigandLen7(b *testing.B) {
	m := a5Machine(b)
	p5 := drugdesign.PaperProblem()
	p7 := drugdesign.PaperProblem()
	p7.MaxLigandLength = 7
	var r5, r7 drugdesign.VirtualTiming
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r5, err = drugdesign.RunVirtual(m, p5, drugdesign.OMP, 4)
		if err != nil {
			b.Fatal(err)
		}
		r7, err = drugdesign.RunVirtual(m, p7, drugdesign.OMP, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r5.Result.Makespan), "len5-cycles")
	b.ReportMetric(float64(r7.Result.Makespan), "len7-cycles")
	b.ReportMetric(float64(r7.Result.Makespan)/float64(r5.Result.Makespan), "slowdown")
}

// --- Assignment 3: loop scheduling --------------------------------------

func BenchmarkA3Scheduling(b *testing.B) {
	m := a5Machine(b)
	skewed := pisim.SkewedCosts(400, 100, 50)
	policies := map[string]pisim.Policy{
		"static":   pisim.StaticPolicy{},
		"static1":  pisim.StaticChunkPolicy{Chunk: 1},
		"dynamic1": pisim.DynamicPolicy{Chunk: 1},
		"dynamic2": pisim.DynamicPolicy{Chunk: 2},
		"dynamic3": pisim.DynamicPolicy{Chunk: 3},
		"guided1":  pisim.GuidedPolicy{MinChunk: 1},
	}
	results := map[string]pisim.LoopResult{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, pol := range policies {
			r, err := m.RunLoop(skewed, pol)
			if err != nil {
				b.Fatal(err)
			}
			results[name] = r
		}
	}
	for name, r := range results {
		b.ReportMetric(float64(r.Makespan), name+"-cycles")
	}
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationTeamFormation(b *testing.B) {
	coh, err := cohort.Generate(cohort.PaperConfig(), 5)
	if err != nil {
		b.Fatal(err)
	}
	var balanced, selfsel teams.BalanceReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, err := teams.FormBalanced(coh, teams.PaperConfig(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		fs, err := teams.FormSelfSelected(coh, teams.PaperConfig(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if balanced, err = fb.Report(); err != nil {
			b.Fatal(err)
		}
		if selfsel, err = fs.Report(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(balanced.AbilitySpread, "balanced-spread")
	b.ReportMetric(selfsel.AbilitySpread, "selfsel-spread")
	b.ReportMetric(float64(balanced.FriendPairs), "balanced-friendpairs")
	b.ReportMetric(float64(selfsel.FriendPairs), "selfsel-friendpairs")
}

func BenchmarkAblationCalibration(b *testing.B) {
	ins := survey.NewBeyerlein()
	targets := respond.PaperTargets()
	cal, err := respond.PaperParams(ins)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := respond.UncalibratedParams(ins)
	if err != nil {
		b.Fatal(err)
	}
	errOf := func(p respond.Params) float64 {
		g, err := respond.NewGenerator(ins, p)
		if err != nil {
			b.Fatal(err)
		}
		mid, end, err := g.Generate(2000, 31)
		if err != nil {
			b.Fatal(err)
		}
		m, err := respond.Measure(ins, mid, end)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		n := 0
		for w := 0; w < 2; w++ {
			for skill, want := range targets.EmphasisComposite[w] {
				total += math.Abs(m.EmphasisComposite[w][skill] - want)
				n++
			}
			for skill, want := range targets.GrowthComposite[w] {
				total += math.Abs(m.GrowthComposite[w][skill] - want)
				n++
			}
		}
		return total / float64(n)
	}
	var calErr, rawErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calErr = errOf(cal)
		rawErr = errOf(raw)
	}
	b.ReportMetric(calErr, "calibrated-mae")
	b.ReportMetric(rawErr, "uncalibrated-mae")
}

func BenchmarkAblationChunkSize(b *testing.B) {
	// Dynamic chunk size on uniform work: overhead vs balance.
	m := a5Machine(b)
	uniform := pisim.UniformCosts(1200, 500)
	chunks := []int{1, 2, 3, 8, 32}
	results := map[int]pisim.Cycles{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			r, err := m.RunLoop(uniform, pisim.DynamicPolicy{Chunk: c})
			if err != nil {
				b.Fatal(err)
			}
			results[c] = r.Makespan
		}
	}
	for _, c := range chunks {
		b.ReportMetric(float64(results[c]), "chunk"+itoa(c)+"-cycles")
	}
}

func BenchmarkSensitivitySeeds(b *testing.B) {
	// Reproducibility of the headline statistics across 20 resampled
	// cohorts at the paper's n.
	var r *sensitivity.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = sensitivity.RunSweep(context.Background(), 20180800, 20, sensitivity.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.GrowthD.Mean, "growth-d-mean")
	b.ReportMetric(r.GrowthD.SD, "growth-d-sd")
	b.ReportMetric(r.EmphasisD.Mean, "emphasis-d-mean")
	b.ReportMetric(r.ClaimRates["growth effect large"], "large-band-rate")
}

func BenchmarkAblationFalseSharing(b *testing.B) {
	// Packed vs padded per-core counters on the simulated Pi's cache
	// lines (Assignment 2's shared-memory-concerns lesson).
	m := a5Machine(b)
	var packed, padded pisim.SharingResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		packed, err = m.RunCounterExperiment(pisim.Packed(), 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		padded, err = m.RunCounterExperiment(pisim.Padded(), 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(packed.TotalMakespan), "packed-cycles")
	b.ReportMetric(float64(padded.TotalMakespan), "padded-cycles")
	b.ReportMetric(float64(packed.TotalMakespan)/float64(padded.TotalMakespan), "slowdown")
}

func BenchmarkAblationReductionStrategy(b *testing.B) {
	// Reduction clause (per-thread partials) vs critical-section
	// accumulation, on the omp runtime in wall time.
	const n = 200000
	comb := func(a, bb float64) float64 { return a + bb }
	b.Run("reduction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := omp.ForReduce(0, n, omp.Static{}, 0.0, comb,
				func(i int, acc float64) float64 { return acc + float64(i) },
				omp.WithNumThreads(4))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("critical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := omp.ForReduceCritical(0, n/100, omp.Static{}, 0.0, comb,
				func(i int) float64 { return float64(i) },
				omp.WithNumThreads(4))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := omp.ForReduceTree(0, n, omp.Static{}, 0.0, comb,
				func(i int, acc float64) float64 { return acc + float64(i) },
				omp.WithNumThreads(4))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

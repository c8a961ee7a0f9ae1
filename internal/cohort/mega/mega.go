// Package mega is the mega-cohort scenario engine: it synthesizes
// multi-institution, multi-semester cohorts scaled into the millions
// of students and reduces them through the streaming sketch stack
// (stats.Moments / stats.CoMoments) over engine.Reduce, so a
// 10M-student run holds only sketches — memory is bounded by the
// scenario-cell count and the reduction's chunk count, never by the
// number of students.
//
// It lives in a subpackage rather than internal/cohort itself because
// core imports cohort: cohort → engine would close an import cycle
// (engine → core → cohort), while mega → engine is acyclic.
//
// Determinism is end-to-end: every student's scores are a pure
// function of (seed, cell, within-cell index), the reduction merges
// per-chunk partials in chunk index order, and the derived analysis is
// computed after the fold. The JSON result is therefore byte-identical
// at any worker count — with fault injection armed included, because
// the batch fault site only ever forces a recompute (pure → identical)
// or adds latency.
package mega

import (
	"context"
	"fmt"
	"math"
	"time"

	"pblparallel/internal/cohort"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/sched"
	"pblparallel/internal/stats"
)

// Config describes one mega-cohort scenario sweep. Students are split
// as evenly as possible over the cross product of institutions,
// semesters, formation policies, and assessment variants (the
// scenario cells); low-index cells absorb the remainder.
type Config struct {
	// Students is the total synthetic enrolment across all cells.
	Students int `json:"students"`
	// Institutions and Semesters scale the replication axes.
	Institutions int `json:"institutions"`
	Semesters    int `json:"semesters"`
	// Policies and Assessments are the scenario axes to sweep.
	Policies    []cohort.FormationPolicy   `json:"-"`
	Assessments []cohort.AssessmentVariant `json:"-"`
	// Seed roots every per-student draw.
	Seed int64 `json:"seed"`
	// Batch is the reduction grain (students per chunk partial); 0
	// auto-scales it so the chunk count — and with it peak memory —
	// stays bounded no matter how large Students is; an explicit Batch
	// must keep the chunk count within the same bound. Batch is part of
	// the result's content identity (it fixes how floating-point error
	// associates); worker count is not.
	Batch int `json:"batch"`
}

// DefaultConfig is the standard scenario grid: 3 institutions ×
// 2 semesters × every formation policy × every assessment variant.
func DefaultConfig(students int, seed int64) Config {
	return Config{
		Students:     students,
		Institutions: 3,
		Semesters:    2,
		Policies:     cohort.AllFormationPolicies(),
		Assessments:  cohort.AllAssessmentVariants(),
		Seed:         seed,
	}
}

// Validate rejects impossible scenario grids.
func (c Config) Validate() error {
	if c.Students < 0 || c.Students > sched.MaxIndexCount {
		return fmt.Errorf("mega: Students %d outside 0..%d", c.Students, sched.MaxIndexCount)
	}
	if c.Institutions < 1 || c.Semesters < 1 {
		return fmt.Errorf("mega: grid %d institutions × %d semesters", c.Institutions, c.Semesters)
	}
	if len(c.Policies) == 0 || len(c.Assessments) == 0 {
		return fmt.Errorf("mega: empty scenario axis (policies %d, assessments %d)",
			len(c.Policies), len(c.Assessments))
	}
	for _, p := range c.Policies {
		if !p.Valid() {
			return fmt.Errorf("mega: invalid formation policy %d", int(p))
		}
	}
	for _, v := range c.Assessments {
		if !v.Valid() {
			return fmt.Errorf("mega: invalid assessment variant %d", int(v))
		}
	}
	if c.Batch < 0 {
		return fmt.Errorf("mega: Batch %d", c.Batch)
	}
	// Students+Batch-1 is the chunk count's numerator, here and in the
	// scheduler, so it must not overflow.
	if c.Batch > math.MaxInt-c.Students {
		return fmt.Errorf("mega: Batch %d overflows the chunk count of %d students", c.Batch, c.Students)
	}
	// Every chunk's partial lives until the fold, so an explicit batch
	// is held to the chunk bound autoBatch keeps.
	if c.Batch > 0 && (c.Students+c.Batch-1)/c.Batch > maxChunks {
		return fmt.Errorf("mega: Batch %d splits %d students into more than %d chunks",
			c.Batch, c.Students, maxChunks)
	}
	return nil
}

// cells is the scenario-cell count.
func (c Config) cells() int {
	return c.Institutions * c.Semesters * len(c.Policies) * len(c.Assessments)
}

// autoBatch bounds the reduction at maxChunks partials: small runs use
// minBatch-sized chunks, huge runs grow the chunk instead of the chunk
// count. Peak memory is O(chunks × cells-touched-per-chunk sketches),
// so with this bound it is independent of Students; Validate holds an
// explicit Batch to the same bound.
const (
	minBatch  = 4096
	maxChunks = 2048
)

func autoBatch(students int) int {
	b := (students + maxChunks - 1) / maxChunks
	if b < minBatch {
		b = minBatch
	}
	return b
}

// Summary is the streaming aggregate of one population: the mergeable
// sketches plus the analysis derived from them after reduction. The
// sketches are the wire format cluster shards will merge (ROADMAP
// item 1); the derived fields mirror the paper's tables.
type Summary struct {
	Students int64           `json:"students"`
	Pre      stats.Moments   `json:"pre"`
	Post     stats.Moments   `json:"post"`
	Gain     stats.Moments   `json:"gain"`
	PrePost  stats.CoMoments `json:"pre_post"`

	GainMean   float64 `json:"gain_mean"`
	EffectD    float64 `json:"effect_d"`
	EffectBand string  `json:"effect_band,omitempty"`
	PearsonR   float64 `json:"pearson_r"`
}

func (s *Summary) add(pre, post float64) {
	s.Students++
	s.Pre.Add(pre)
	s.Post.Add(post)
	s.Gain.Add(post - pre)
	s.PrePost.Add(pre, post)
}

// Merge folds another population summary into s (sketch merges only;
// call Finalize afterwards to refresh the derived fields). This is the
// operation cluster shards will apply to combine per-node results.
func (s *Summary) Merge(o *Summary) {
	s.Students += o.Students
	s.Pre.Merge(o.Pre)
	s.Post.Merge(o.Post)
	s.Gain.Merge(o.Gain)
	s.PrePost.Merge(o.PrePost)
}

// Finalize computes the derived analysis from the sketches. Degenerate
// populations (empty cells, zero variance) leave the derived fields at
// zero rather than failing the whole run.
func (s *Summary) Finalize() {
	if m, err := s.Gain.MeanValue(); err == nil {
		s.GainMean = m
	}
	if d, err := stats.CohensDFromMoments(s.Pre, s.Post); err == nil {
		s.EffectD = d.D
		s.EffectBand = string(d.Band())
	}
	if r, err := s.PrePost.R(); err == nil {
		s.PearsonR = r
	}
}

// Cell is one scenario cell's aggregate.
type Cell struct {
	Institution int    `json:"institution"`
	Semester    int    `json:"semester"`
	Policy      string `json:"policy"`
	Assessment  string `json:"assessment"`
	Summary
}

// Result is a completed mega-cohort run. Elapsed and Workers are
// execution facts, not content — they are excluded from JSON so the
// serialized result is byte-identical at any worker count.
type Result struct {
	Students int     `json:"students"`
	Seed     int64   `json:"seed"`
	Batch    int     `json:"batch"`
	Batches  int     `json:"batches"`
	Cells    []Cell  `json:"cells"`
	Overall  Summary `json:"overall"`

	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`
}

// layout maps global student indices onto scenario cells: contiguous
// blocks in cell-index order, remainder to the low cells. Contiguity
// means one reduction chunk touches at most a couple of cells, keeping
// the chunk partials sparse.
type layout struct {
	cfg   Config
	cells int
	base  int // students per cell
	extra int // first extra cells hold base+1
}

func newLayout(cfg Config) layout {
	n := cfg.cells()
	return layout{cfg: cfg, cells: n, base: cfg.Students / n, extra: cfg.Students % n}
}

// cellOf returns the cell owning global index i and i's within-cell index.
func (l layout) cellOf(i int) (cell, within int) {
	fat := l.extra * (l.base + 1)
	if i < fat {
		return i / (l.base + 1), i % (l.base + 1)
	}
	i -= fat
	return l.extra + i/l.base, i % l.base
}

// axes decodes a cell index into its scenario coordinates (the inverse
// of the institution-major, assessment-minor enumeration).
func (l layout) axes(cell int) (inst, sem int, pol cohort.FormationPolicy, av cohort.AssessmentVariant) {
	nA := len(l.cfg.Assessments)
	nP := len(l.cfg.Policies)
	av = l.cfg.Assessments[cell%nA]
	cell /= nA
	pol = l.cfg.Policies[cell%nP]
	cell /= nP
	sem = cell % l.cfg.Semesters
	inst = cell / l.cfg.Semesters
	return inst, sem, pol, av
}

// splitmix64 is the same finalizer the engine's seed streams and the
// fault injector use; chained with the golden-ratio gamma it gives the
// per-student draw stream.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const gamma = 0x9E3779B97F4A7C15

// unit maps a draw to (0, 1] — the closed-at-1 side so math.Log never
// sees zero in Box-Muller.
func unit(u uint64) float64 { return float64(u>>11+1) * 0x1p-53 }

// norms derives two independent standard normals from draws i and i+1
// of the stream keyed by key, via Box-Muller.
func norms(key uint64, i uint64) (z1, z2 float64) {
	u1 := unit(splitmix64(key + (i+1)*gamma))
	u2 := unit(splitmix64(key + (i+2)*gamma))
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// scores synthesizes one student's observed pre/post soft-skill scores
// (1–5 survey scale) as a pure function of (seed, cell, within): a
// latent baseline, a policy-shaped growth, and assessment-shaped
// measurement noise on each observation.
func scores(seed int64, cell, within int, pol cohort.FormationPolicy, av cohort.AssessmentVariant) (pre, post float64) {
	key := fault.Mix3(uint64(seed), uint64(cell), uint64(within))
	zBase, zGain := norms(key, 0)
	ePre, ePost := norms(key, 2)
	gainMean, gainSpread := pol.GainModel()
	bias, noise := av.NoiseModel()
	latent := 3.0 + 0.6*zBase
	gain := gainMean + gainSpread*zGain
	pre = clamp(latent+bias+noise*ePre, 1, 5)
	post = clamp(latent+gain+bias+noise*ePost, 1, 5)
	return pre, post
}

// partial is one reduction chunk's accumulator: per-cell summaries in
// ascending cell order. Because students are laid out contiguously and
// a chunk's indices arrive ascending, cells only ever append.
type partial struct {
	cells []cellPartial
}

type cellPartial struct {
	idx int
	sum Summary
}

func (p *partial) at(cell int) *Summary {
	if n := len(p.cells); n > 0 && p.cells[n-1].idx == cell {
		return &p.cells[n-1].sum
	}
	p.cells = append(p.cells, cellPartial{idx: cell})
	return &p.cells[len(p.cells)-1].sum
}

// merge folds o into p, merging summaries of equal cell index and
// keeping ascending order. The reduction folds chunks in ascending
// index order and cells are laid out contiguously, so o's cells almost
// always continue where p's end — that path is a plain append (no
// reallocation churn; the fold's total allocation stays proportional
// to the cell count, not the chunk count). The general sorted-list
// merge below keeps Merge correct for arbitrary inputs.
func (p *partial) merge(o *partial) {
	if len(o.cells) == 0 {
		return
	}
	if len(p.cells) == 0 {
		p.cells = append(p.cells, o.cells...)
		return
	}
	if last := len(p.cells) - 1; o.cells[0].idx >= p.cells[last].idx {
		rest := o.cells
		if o.cells[0].idx == p.cells[last].idx {
			p.cells[last].sum.Merge(&o.cells[0].sum)
			rest = o.cells[1:]
		}
		p.cells = append(p.cells, rest...)
		return
	}
	out := make([]cellPartial, 0, len(p.cells)+len(o.cells))
	i, j := 0, 0
	for i < len(p.cells) && j < len(o.cells) {
		switch {
		case p.cells[i].idx < o.cells[j].idx:
			out = append(out, p.cells[i])
			i++
		case p.cells[i].idx > o.cells[j].idx:
			out = append(out, o.cells[j])
			j++
		default:
			c := p.cells[i]
			c.sum.Merge(&o.cells[j].sum)
			out = append(out, c)
			i, j = i+1, j+1
		}
	}
	p.cells = append(append(out, p.cells[i:]...), o.cells[j:]...)
}

// Run executes the scenario sweep on the engine's worker pool. When
// fault injection is armed in ctx, SiteCohortBatch fires at batch
// starts: RunFail forces a deterministic recompute of the batch (the
// synthesis is pure, so recovery reproduces identical values — the
// fault is absorbed into the ledger, never the output) and ThreadStall
// adds latency only.
func Run(ctx context.Context, e *engine.Engine, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = autoBatch(cfg.Students)
	}
	lay := newLayout(cfg)
	inj := fault.FromContext(ctx)
	begin := time.Now()

	total, err := engine.Reduce(ctx, e, cfg.Students, batch,
		func(runCtx context.Context, i int, p *partial) error {
			if i%batch == 0 {
				batchFault(inj, cfg.Seed, i/batch)
			}
			cell, within := lay.cellOf(i)
			_, _, pol, av := lay.axes(cell)
			pre, post := scores(cfg.Seed, cell, within, pol, av)
			p.at(cell).add(pre, post)
			if (i+1)%batch == 0 || i+1 == cfg.Students {
				return runCtx.Err() // once per batch: Err takes the context's mutex
			}
			return nil
		},
		func(into, part *partial) { into.merge(part) })
	if err != nil {
		return nil, fmt.Errorf("mega: %w", err)
	}

	res := &Result{
		Students: cfg.Students,
		Seed:     cfg.Seed,
		Batch:    batch,
		Batches:  (cfg.Students + batch - 1) / batch,
		Cells:    make([]Cell, lay.cells),
		Workers:  e.Workers(),
	}
	for c := range res.Cells {
		inst, sem, pol, av := lay.axes(c)
		res.Cells[c] = Cell{Institution: inst + 1, Semester: sem + 1,
			Policy: pol.String(), Assessment: av.String()}
	}
	for _, cp := range total.cells {
		res.Cells[cp.idx].Summary = cp.sum
	}
	for c := range res.Cells {
		res.Overall.Merge(&res.Cells[c].Summary)
		res.Cells[c].Finalize()
	}
	res.Overall.Finalize()
	res.Elapsed = time.Since(begin)
	return res, nil
}

// batchFault applies the batch-start injection decision. Keyed by
// (seed, batch index) — never by worker — so the same faults fire at
// any worker count.
func batchFault(inj *fault.Injector, seed int64, batchIdx int) {
	f, ok := inj.Hit(fault.SiteCohortBatch, fault.Mix2(uint64(seed), uint64(batchIdx)))
	if !ok {
		return
	}
	switch f.Kind {
	case fault.RunFail:
		// The failed first attempt is recomputed deterministically; by
		// the time we are here the retry has "happened" — synthesis is
		// pure, so re-running it is the identity. Record the absorption.
		inj.MarkRetry()
		inj.MarkRecovered(1)
	case fault.ThreadStall:
		time.Sleep(f.Duration())
	}
}

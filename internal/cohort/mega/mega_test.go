package mega_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"pblparallel/internal/cohort"
	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/engine"
	"pblparallel/internal/fault"
	"pblparallel/internal/sched"
)

// chaosPlan arms the batch site with both fault kinds at a rate high
// enough that a multi-batch run is guaranteed to absorb several.
func chaosPlan() fault.Plan {
	return fault.Plan{Seed: 99, Rules: []fault.Rule{
		{Site: fault.SiteCohortBatch, Kind: fault.RunFail, Prob: 0.3},
		{Site: fault.SiteCohortBatch, Kind: fault.ThreadStall, Prob: 0.3, Max: 0.0002},
	}}
}

// megaJSON runs the scenario sweep at the given worker count on a
// dedicated runtime and returns the serialized result.
func megaJSON(t *testing.T, cfg mega.Config, workers int, withFaults bool) ([]byte, *fault.Injector) {
	t.Helper()
	rt := sched.New(sched.WithWorkers(workers))
	defer rt.Close()
	e := engine.New(engine.WithWorkers(workers), engine.WithRuntime(rt))
	ctx := context.Background()
	var inj *fault.Injector
	if withFaults {
		var err error
		inj, err = fault.New(chaosPlan())
		if err != nil {
			t.Fatalf("fault.New: %v", err)
		}
		ctx = fault.NewContext(ctx, inj)
	}
	res, err := mega.Run(ctx, e, cfg)
	if err != nil {
		t.Fatalf("mega.Run(workers=%d): %v", workers, err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b, inj
}

// TestWorkerCountInvarianceWithFaults is the acceptance contract: the
// serialized result is byte-identical across workers 1/2/8 with fault
// injection armed, and the faults really fired (the invariance is not
// vacuous).
func TestWorkerCountInvarianceWithFaults(t *testing.T) {
	cfg := mega.DefaultConfig(50_000, 42)
	cfg.Batch = 1000 // force many batches so stealing and faults both engage
	ref, inj := megaJSON(t, cfg, 1, true)
	if snap := inj.Stats(); snap.Injected == 0 {
		t.Fatal("fault plan armed but nothing injected — invariance test is vacuous")
	}
	for _, w := range []int{2, 8} {
		got, _ := megaJSON(t, cfg, w, true)
		if string(got) != string(ref) {
			t.Fatalf("workers=%d output differs from workers=1 (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
	// And the fault-free run computes the same bytes: batch faults are
	// absorbed, never observable in the output.
	clean, _ := megaJSON(t, cfg, 4, false)
	if string(clean) != string(ref) {
		t.Fatal("fault injection changed the computed result")
	}
}

// TestPeakMemoryIndependentOfCohortSize pins the O(sketches) memory
// claim: total allocation for a run megaScaleFactor× larger must stay
// within a small constant factor — nowhere near the ~16 bytes/student
// a two-pass implementation would retain. Sizes are downscaled under
// the race detector (mega_scale_*.go).
func TestPeakMemoryIndependentOfCohortSize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-student run")
	}
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Close()
	e := engine.New(engine.WithWorkers(2), engine.WithRuntime(rt))

	alloc := func(students int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := mega.Run(context.Background(), e, mega.DefaultConfig(students, 7))
		if err != nil {
			t.Fatalf("Run(%d): %v", students, err)
		}
		if res.Overall.Students != int64(students) {
			t.Fatalf("Run(%d): counted %d students", students, res.Overall.Students)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	small := alloc(megaScaleSmall)
	large := alloc(megaScaleSmall * megaScaleFactor)
	t.Logf("alloc: %d students → %d B, %d students → %d B",
		megaScaleSmall, small, megaScaleSmall*megaScaleFactor, large)
	// A two-pass stack would allocate at least 2 float64s per student;
	// the streaming stack must stay far below that for the large run.
	if perStudent := float64(large) / float64(megaScaleSmall*megaScaleFactor); perStudent > 1.0 {
		t.Fatalf("large run allocated %.2f B/student — not O(sketches)", perStudent)
	}
	// Absolute ceiling: sketches plus bounded chunk partials, whatever
	// the cohort size. (Two-pass storage for the large run alone would
	// be ≥ 16 B/student — orders of magnitude past this.)
	if large > 16<<20 {
		t.Fatalf("large run allocated %d B — not bounded by the chunk cap", large)
	}
	// Allocation may grow with the chunk count until autoBatch caps it
	// at maxChunks (the large run here is past the cap), but never with
	// the student count itself — a proportional 10× jump means a
	// per-student allocation crept in.
	if large > small*uint64(megaScaleFactor)*3/4 {
		t.Fatalf("allocation scaled with cohort size: %d B → %d B", small, large)
	}
}

// TestLayoutPartition: every student lands in exactly one cell and the
// per-cell counts differ by at most one.
func TestLayoutPartition(t *testing.T) {
	cfg := mega.DefaultConfig(10_007, 3) // prime: exercises the remainder path
	cfg.Batch = 512
	b, _ := megaJSON(t, cfg, 4, false)
	var res mega.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	nCells := 3 * 2 * len(cohort.AllFormationPolicies()) * len(cohort.AllAssessmentVariants())
	if len(res.Cells) != nCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), nCells)
	}
	var total int64
	lo, hi := int64(1<<62), int64(0)
	for _, c := range res.Cells {
		total += c.Students
		if c.Students < lo {
			lo = c.Students
		}
		if c.Students > hi {
			hi = c.Students
		}
	}
	if total != 10_007 {
		t.Fatalf("cells cover %d students, want 10007", total)
	}
	if hi-lo > 1 {
		t.Fatalf("uneven split: min %d max %d", lo, hi)
	}
	if res.Overall.Students != 10_007 {
		t.Fatalf("overall counted %d", res.Overall.Students)
	}
}

// TestScenarioAxesShapeResults: the policy gain models must be visible
// in the aggregates (skill-based > balanced > random > self-selected
// mean gain), i.e. the axes are real dimensions, not labels.
func TestScenarioAxesShapeResults(t *testing.T) {
	cfg := mega.DefaultConfig(200_000, 11)
	b, _ := megaJSON(t, cfg, 4, false)
	var res mega.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	gain := map[string]float64{}
	n := map[string]int{}
	for _, c := range res.Cells {
		gain[c.Policy] += c.GainMean
		n[c.Policy]++
	}
	for k := range gain {
		gain[k] /= float64(n[k])
	}
	if !(gain["skill-based"] > gain["balanced"] &&
		gain["balanced"] > gain["random"] &&
		gain["random"] > gain["self-selected"]) {
		t.Fatalf("policy ordering not reflected in gains: %v", gain)
	}
	// Every cell of this size shows the paper's positive pre→post effect.
	for _, c := range res.Cells {
		if c.EffectD <= 0 {
			t.Fatalf("cell %s/%s: non-positive effect %v", c.Policy, c.Assessment, c.EffectD)
		}
		if c.PearsonR <= 0.5 {
			t.Fatalf("cell %s/%s: pre/post correlation %v implausibly low", c.Policy, c.Assessment, c.PearsonR)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	e := engine.New(engine.WithWorkers(1))
	bad := []mega.Config{
		{Students: -1, Institutions: 1, Semesters: 1,
			Policies: cohort.AllFormationPolicies(), Assessments: cohort.AllAssessmentVariants()},
		{Students: 10, Institutions: 0, Semesters: 1,
			Policies: cohort.AllFormationPolicies(), Assessments: cohort.AllAssessmentVariants()},
		{Students: 10, Institutions: 1, Semesters: 1, Assessments: cohort.AllAssessmentVariants()},
		{Students: 10, Institutions: 1, Semesters: 1,
			Policies:    []cohort.FormationPolicy{cohort.FormationPolicy(99)},
			Assessments: cohort.AllAssessmentVariants()},
		{Students: 10, Institutions: 1, Semesters: 1, Batch: -1,
			Policies: cohort.AllFormationPolicies(), Assessments: cohort.AllAssessmentVariants()},
	}
	for i, cfg := range bad {
		if _, err := mega.Run(context.Background(), e, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestValidateChunkBound: an explicit Batch may not split Students into
// more than 2048 chunks, the bound autoBatch keeps, since every chunk's
// partial lives until the fold; nor may Students+Batch-1, the chunk
// count's numerator, overflow, which would panic the reduction. Nor may
// Students pass what a scheduler index pool holds (batch 0 is auto).
func TestValidateChunkBound(t *testing.T) {
	for _, tc := range []struct {
		students, batch int
		ok              bool
	}{
		{20_000_000, 1, false},
		{20_000_000, 9765, false}, // 2049 chunks
		{20_000_000, 9766, true},  // 2048 chunks
		{2048, 1, true},
		{2049, 1, false},
		{0, 1, true},
		{30_000, math.MaxInt - 30_000, true},
		{30_000, math.MaxInt, false},
		{sched.MaxIndexCount, 0, true},
		{sched.MaxIndexCount + 1, 0, false},
		{3_000_000_000, 0, false},
	} {
		cfg := mega.DefaultConfig(tc.students, 1)
		cfg.Batch = tc.batch
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d students, batch %d: Validate() = %v, want ok=%t", tc.students, tc.batch, err, tc.ok)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	e := engine.New(engine.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mega.Run(ctx, e, mega.DefaultConfig(100_000, 1))
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

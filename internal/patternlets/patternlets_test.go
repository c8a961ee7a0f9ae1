package patternlets

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pblparallel/internal/omp"
)

func TestForkJoin(t *testing.T) {
	tr, err := ForkJoin(4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Threads != 4 || len(tr.During) != 4 {
		t.Fatalf("trace = %+v", tr)
	}
	for tid, line := range tr.During {
		if !strings.Contains(line, "thread "+string(rune('0'+tid))) {
			t.Fatalf("thread %d line = %q", tid, line)
		}
	}
	if tr.Before == "" || tr.After == "" {
		t.Fatal("sequential phases missing")
	}
}

func TestForkJoinBadThreads(t *testing.T) {
	if _, err := ForkJoin(0); err == nil {
		t.Fatal("expected error")
	}
}

func TestSPMD(t *testing.T) {
	lines, err := SPMD(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 {
		t.Fatalf("%d lines", len(lines))
	}
	seen := map[string]bool{}
	for _, l := range lines {
		if seen[l] {
			t.Fatalf("duplicate line %q", l)
		}
		seen[l] = true
		if !strings.Contains(l, "of 6") {
			t.Fatalf("line %q lacks team size", l)
		}
	}
}

func TestDataRaceRepairsAreExact(t *testing.T) {
	rep, err := DataRace(4, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expected != 20000 {
		t.Fatalf("expected = %d", rep.Expected)
	}
	if rep.Critical != rep.Expected {
		t.Fatalf("critical = %d, want %d", rep.Critical, rep.Expected)
	}
	if rep.Atomic != rep.Expected {
		t.Fatalf("atomic = %d, want %d", rep.Atomic, rep.Expected)
	}
	if rep.Racy > rep.Expected {
		t.Fatalf("racy counter overshot: %d > %d", rep.Racy, rep.Expected)
	}
	if rep.LostUpdates() != rep.Expected-rep.Racy {
		t.Fatal("LostUpdates arithmetic")
	}
}

func TestDataRaceValidation(t *testing.T) {
	if _, err := DataRace(0, 10); err == nil {
		t.Fatal("0 threads accepted")
	}
	if _, err := DataRace(2, -1); err == nil {
		t.Fatal("negative iters accepted")
	}
}

func TestParallelLoopEqualChunks(t *testing.T) {
	la, err := ParallelLoopEqualChunks(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if la.Schedule != "static" {
		t.Fatalf("schedule = %q", la.Schedule)
	}
	// Equal chunks: each thread gets a contiguous run of 4.
	for tid, idx := range la.Indices {
		if len(idx) != 4 {
			t.Fatalf("thread %d has %d iterations", tid, len(idx))
		}
		for k := 1; k < len(idx); k++ {
			if idx[k] != idx[k-1]+1 {
				t.Fatalf("thread %d chunk not contiguous: %v", tid, idx)
			}
		}
		if idx[0] != tid*4 {
			t.Fatalf("thread %d starts at %d", tid, idx[0])
		}
	}
	cov := la.Coverage()
	if len(cov) != 16 || cov[0] != 0 || cov[15] != 15 {
		t.Fatalf("coverage = %v", cov)
	}
}

// Property: any scheduling trace covers 0..n-1 exactly once.
func TestLoopSchedulingCoverageProperty(t *testing.T) {
	f := func(nRaw, thrRaw, chunkRaw, kind uint8) bool {
		n := int(nRaw) % 100
		threads := 1 + int(thrRaw)%6
		c := 1 + int(chunkRaw)%3
		var sched omp.Schedule
		switch kind % 3 {
		case 0:
			sched = omp.StaticChunk{Chunk: c}
		case 1:
			sched = omp.Dynamic{Chunk: c}
		default:
			sched = omp.Guided{MinChunk: c}
		}
		la, err := LoopSchedulingTrace(n, threads, sched)
		if err != nil {
			return false
		}
		cov := la.Coverage()
		if len(cov) != n {
			return false
		}
		for i, v := range cov {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticChunkAssignmentPattern(t *testing.T) {
	// chunks of size 2 over 12 iterations, 3 threads: thread 1 gets
	// {2,3,8,9} — the deal pattern the assignment has students observe.
	la, err := LoopSchedulingTrace(12, 3, omp.StaticChunk{Chunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), la.Indices[1]...)
	sort.Ints(got)
	want := []int{2, 3, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("thread 1 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("thread 1 = %v, want %v", got, want)
		}
	}
}

func TestSumWithReduction(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := SumWithReduction(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 500500 {
		t.Fatalf("sum = %v", got)
	}
}

func TestTrapezoidKnownIntegrals(t *testing.T) {
	// ∫₀¹ x dx = 0.5 exactly for the trapezoid rule (linear integrand).
	got, err := Trapezoid(func(x float64) float64 { return x }, 0, 1, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("integral = %v", got)
	}
	// ∫₀^π sin = 2, within O(h²).
	got, err = Trapezoid(math.Sin, 0, math.Pi, 10000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("sin integral = %v", got)
	}
}

func TestTrapezoidMatchesSequential(t *testing.T) {
	f := func(x float64) float64 { return x*x + math.Cos(3*x) }
	seq, err := TrapezoidSequential(f, -1, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Trapezoid(f, -1, 2, 5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq-par) > 1e-9 {
		t.Fatalf("seq %v vs par %v", seq, par)
	}
}

func TestTrapezoidValidation(t *testing.T) {
	if _, err := Trapezoid(nil, 0, 1, 10, 2); err == nil {
		t.Fatal("nil integrand accepted")
	}
	if _, err := Trapezoid(math.Sin, 0, 1, 0, 2); err == nil {
		t.Fatal("zero trapezoids accepted")
	}
	if _, err := Trapezoid(math.Sin, 1, 0, 10, 2); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestPiByTrapezoidConverges(t *testing.T) {
	coarse, err := PiByTrapezoid(1<<8, 4)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := PiByTrapezoid(1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if PiError(fine) >= PiError(coarse) {
		t.Fatalf("no convergence: %v vs %v", PiError(fine), PiError(coarse))
	}
	if PiError(fine) > 1e-8 {
		t.Fatalf("pi error = %v", PiError(fine))
	}
}

func TestBarrierCoordinationPhases(t *testing.T) {
	phases, err := BarrierCoordination(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 6 {
		t.Fatalf("%d phases", len(phases))
	}
	// The barrier guarantee: every BeforeOrder (0..5) was assigned
	// before any AfterOrder; orders are permutations of 0..5.
	seenB := map[int]bool{}
	seenA := map[int]bool{}
	for _, p := range phases {
		seenB[p.BeforeOrder] = true
		seenA[p.AfterOrder] = true
	}
	for i := 0; i < 6; i++ {
		if !seenB[i] || !seenA[i] {
			t.Fatalf("order %d missing (before=%v after=%v)", i, seenB, seenA)
		}
	}
}

func TestMasterWorkerProcessesEveryTaskOnce(t *testing.T) {
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	counts := map[int]int{}
	records, err := MasterWorker(4, 50, func(task int) {
		<-mu
		counts[task]++
		mu <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 50 {
		t.Fatalf("%d distinct tasks processed", len(counts))
	}
	for task, c := range counts {
		if c != 1 {
			t.Fatalf("task %d processed %d times", task, c)
		}
	}
	// The master (thread 0) processes nothing.
	if len(records[0].Tasks) != 0 {
		t.Fatalf("master processed %v", records[0].Tasks)
	}
	total := 0
	for _, r := range records {
		total += len(r.Tasks)
	}
	if total != 50 {
		t.Fatalf("workers recorded %d tasks", total)
	}
}

func TestMasterWorkerValidation(t *testing.T) {
	if _, err := MasterWorker(1, 5, nil); err == nil {
		t.Fatal("single-thread master-worker accepted")
	}
	if _, err := MasterWorker(3, -1, nil); err == nil {
		t.Fatal("negative tasks accepted")
	}
}

func TestMasterWorkerNilProcess(t *testing.T) {
	records, err := MasterWorker(3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range records {
		total += len(r.Tasks)
	}
	if total != 7 {
		t.Fatalf("recorded %d tasks", total)
	}
}

func TestSpeedupEstimate(t *testing.T) {
	// Fully parallel on 4 cores: 4x.
	if s, err := SpeedupEstimate(1, 4); err != nil || s != 4 {
		t.Fatalf("s=%v err=%v", s, err)
	}
	// Fully serial: 1x regardless of cores.
	if s, err := SpeedupEstimate(0, 64); err != nil || s != 1 {
		t.Fatalf("s=%v err=%v", s, err)
	}
	// 90% parallel on 4 cores: 1/(0.1+0.225) ≈ 3.077.
	s, err := SpeedupEstimate(0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1/(0.1+0.9/4)) > 1e-12 {
		t.Fatalf("s = %v", s)
	}
	if _, err := SpeedupEstimate(1.5, 4); err == nil {
		t.Fatal("bad fraction accepted")
	}
	if _, err := SpeedupEstimate(0.5, 0); err == nil {
		t.Fatal("bad cores accepted")
	}
}

func TestRegistryCoversAllAssignmentPrograms(t *testing.T) {
	reg := Registry()
	byAssignment := map[int]int{}
	names := map[string]bool{}
	for _, p := range reg {
		if names[p.Name] {
			t.Fatalf("duplicate patternlet %q", p.Name)
		}
		names[p.Name] = true
		if p.Summary == "" || p.Demo == nil {
			t.Fatalf("%q incomplete", p.Name)
		}
		byAssignment[p.Assignment]++
	}
	// The paper lists 3 programs in each of Assignments 2, 3, and 4.
	for _, a := range []int{2, 3, 4} {
		if byAssignment[a] != 3 {
			t.Fatalf("assignment %d has %d patternlets, want 3", a, byAssignment[a])
		}
	}
}

func TestDivideConquerSorts(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rep, err := DivideConquer(100_000, workers, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sorted {
			t.Fatalf("workers=%d: output not sorted", workers)
		}
		if rep.Forks == 0 || rep.Inlined+rep.Peer != rep.Forks {
			t.Fatalf("workers=%d: forks %d, inlined %d + peer %d, want a nonzero sum equal to forks",
				workers, rep.Forks, rep.Inlined, rep.Peer)
		}
	}
}

func TestDivideConquerValidation(t *testing.T) {
	if _, err := DivideConquer(0, 4, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := DivideConquer(10, 0, 1); err == nil {
		t.Fatal("workers=0 accepted")
	}
}

func TestLookup(t *testing.T) {
	p, err := Lookup("trapezoid")
	if err != nil || p.Name != "trapezoid" {
		t.Fatalf("Lookup = %+v, %v", p, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestAllDemosRun(t *testing.T) {
	for _, p := range Registry() {
		var b strings.Builder
		if err := p.Demo(&b, 4); err != nil {
			t.Fatalf("%s demo: %v", p.Name, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s demo produced no output", p.Name)
		}
	}
}

func TestDemoOutputsMentionKeyConcepts(t *testing.T) {
	checks := map[string]string{
		"forkjoin":      "before the parallel region",
		"datarace":      "lost",
		"scheduling":    "dynamic,3",
		"trapezoid":     "pi with",
		"barrier":       "barrier held",
		"masterworker":  "master",
		"divideconquer": "quicksort",
	}
	for name, want := range checks {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := p.Demo(&b, 4); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("%s demo missing %q:\n%s", name, want, b.String())
		}
	}
}

package pisim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pblparallel/internal/omp"
)

func pi(t testing.TB) *Machine {
	t.Helper()
	m, err := NewMachine(PaperPi3B())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Cores: 0, ClockHz: 1},
		{Cores: 4, ClockHz: 0},
		{Cores: 4, ClockHz: 1, DispatchOverhead: -1},
		{Cores: 4, ClockHz: 1, BarrierCost: -1},
		{Cores: 4, ClockHz: 1, MemoryContention: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewMachine(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := NewMachine(PaperPi3B()); err != nil {
		t.Fatal(err)
	}
}

func TestPaperPi3BShape(t *testing.T) {
	cfg := PaperPi3B()
	if cfg.Cores != 4 {
		t.Fatalf("cores = %d, the Pi 3 B+ has 4", cfg.Cores)
	}
	if cfg.ClockHz != 1.4e9 {
		t.Fatalf("clock = %v", cfg.ClockHz)
	}
}

func TestDuration(t *testing.T) {
	m := pi(t)
	// 1.4e9 cycles at 1.4 GHz is one second.
	if d := m.Duration(Cycles(1.4e9)); d != time.Second {
		t.Fatalf("duration = %v", d)
	}
}

func TestRunSequential(t *testing.T) {
	m := pi(t)
	r, err := m.RunSequential(UniformCosts(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 1000 || r.SequentialCost != 1000 {
		t.Fatalf("sequential = %+v", r)
	}
	if r.Speedup() != 1 {
		t.Fatalf("sequential speedup = %v", r.Speedup())
	}
	if _, err := m.RunSequential([]Cycles{5, -1}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestStaticUniformSpeedup(t *testing.T) {
	// Uniform work on 4 cores: speedup close to 4, below it because of
	// overheads and contention.
	m := pi(t)
	costs := UniformCosts(4000, 1000)
	r, err := m.RunLoop(costs, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Speedup()
	if s <= 3.0 || s >= 4.0 {
		t.Fatalf("speedup = %.3f, want in (3,4)", s)
	}
	if r.LoadImbalance() > 0.01 {
		t.Fatalf("imbalance = %.3f on uniform static", r.LoadImbalance())
	}
	if r.Chunks != 4 {
		t.Fatalf("chunks = %d", r.Chunks)
	}
}

func TestDynamicBeatsStaticOnSkew(t *testing.T) {
	// Triangular costs: static contiguous blocks give the last core far
	// more work; dynamic chunk-1 balances. This is the Assignment 3
	// lesson the scheduling patternlet teaches.
	m := pi(t)
	costs := SkewedCosts(400, 100, 50)
	stat, err := m.RunLoop(costs, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := m.RunLoop(costs, omp.Dynamic{Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan >= stat.Makespan {
		t.Fatalf("dynamic %d not faster than static %d on skewed work", dyn.Makespan, stat.Makespan)
	}
	if dyn.LoadImbalance() >= stat.LoadImbalance() {
		t.Fatalf("dynamic imbalance %.3f not below static %.3f", dyn.LoadImbalance(), stat.LoadImbalance())
	}
}

func TestStaticChunkRoundRobinHelpsSkew(t *testing.T) {
	// Round-robin small chunks also mitigate linear skew vs one block.
	m := pi(t)
	costs := SkewedCosts(400, 100, 50)
	block, err := m.RunLoop(costs, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := m.RunLoop(costs, omp.StaticChunk{Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan >= block.Makespan {
		t.Fatalf("static,1 %d not faster than static block %d", rr.Makespan, block.Makespan)
	}
}

func TestFinerDynamicChunksCostMoreOverheadOnUniform(t *testing.T) {
	// On uniform work, dynamic chunk 1 pays more dispatch overhead than
	// chunk 3 — the overhead-vs-balance tradeoff of Assignment 3.
	m := pi(t)
	costs := UniformCosts(1200, 500)
	c1, err := m.RunLoop(costs, omp.Dynamic{Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := m.RunLoop(costs, omp.Dynamic{Chunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Makespan <= c3.Makespan {
		t.Fatalf("dynamic,1 %d not slower than dynamic,3 %d on uniform work", c1.Makespan, c3.Makespan)
	}
	if c1.Chunks != 1200 || c3.Chunks != 400 {
		t.Fatalf("chunk counts %d/%d", c1.Chunks, c3.Chunks)
	}
}

func TestGuidedFewerChunksThanDynamicOne(t *testing.T) {
	m := pi(t)
	costs := UniformCosts(1000, 500)
	g, err := m.RunLoop(costs, omp.Guided{MinChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.RunLoop(costs, omp.Dynamic{Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Chunks >= d.Chunks {
		t.Fatalf("guided chunks %d not below dynamic,1 chunks %d", g.Chunks, d.Chunks)
	}
}

func TestRunLoopValidation(t *testing.T) {
	m := pi(t)
	if _, err := m.RunLoop(UniformCosts(5, 1), nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := m.RunLoop(UniformCosts(5, 1), omp.Dynamic{}); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := m.RunLoop(UniformCosts(5, 1), omp.StaticChunk{}); err == nil {
		t.Fatal("zero static chunk accepted")
	}
	if _, err := m.RunLoop(UniformCosts(5, 1), omp.Guided{}); err == nil {
		t.Fatal("zero guided chunk accepted")
	}
	if _, err := m.RunLoop([]Cycles{1, -2}, omp.Static{}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestEmptyLoop(t *testing.T) {
	m := pi(t)
	r, err := m.RunLoop(nil, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != m.Config().BarrierCost {
		t.Fatalf("empty loop makespan = %d, want barrier cost %d", r.Makespan, m.Config().BarrierCost)
	}
	if r.Speedup() != 0 && !math.IsInf(r.Speedup(), 0) && r.SequentialCost != 0 {
		t.Fatalf("speedup = %v", r.Speedup())
	}
}

// Property: every schedule conserves work — total busy time equals the
// contention-scaled work plus per-chunk overhead, summed over the
// schedule's chunks; and makespan is busy_max plus the barrier. The
// expected chunks come from draining a fresh dispatcher thread by
// thread, an order RunLoop never uses: every schedule's chunk set is
// the same in any claim order (steal's splits stay on chunk
// boundaries).
func TestLoopConservationProperty(t *testing.T) {
	m := pi(t)
	f := func(nRaw, chunkRaw, kind uint8, seed int64) bool {
		n := int(nRaw) % 300
		chunkSize := 1 + int(chunkRaw)%5
		costs := make([]Cycles, n)
		v := uint64(seed)
		for i := range costs {
			v = v*6364136223846793005 + 1442695040888963407
			costs[i] = Cycles((v>>33)%1000) + 1
		}
		var pol omp.Schedule
		switch kind % 5 {
		case 0:
			pol = omp.Static{}
		case 1:
			pol = omp.StaticChunk{Chunk: chunkSize}
		case 2:
			pol = omp.Dynamic{Chunk: chunkSize}
		case 3:
			pol = omp.Guided{MinChunk: chunkSize}
		default:
			pol = omp.Steal{Chunk: chunkSize}
		}
		r, err := m.RunLoop(costs, pol)
		if err != nil {
			return false
		}
		var busyTotal, busyMax Cycles
		for _, b := range r.CoreBusy {
			busyTotal += b
			if b > busyMax {
				busyMax = b
			}
		}
		factor := 1 + float64(m.Cores()-1)*m.Config().MemoryContention
		prefix := make([]Cycles, len(costs)+1)
		for i, c := range costs {
			prefix[i+1] = prefix[i] + c
		}
		// Work conservation within rounding: each chunk rounds its
		// scaled cost down once.
		d, err := omp.NewDispatcher(pol, len(costs), m.Cores())
		if err != nil {
			return false
		}
		var scaledWork Cycles
		chunks, covered := 0, 0
		for tid := 0; tid < m.Cores(); tid++ {
			for {
				start, l := d.Next(tid)
				if l == 0 {
					break
				}
				scaledWork += Cycles(float64(prefix[start+l]-prefix[start])*factor) + m.Config().DispatchOverhead
				chunks++
				covered += l
			}
		}
		if covered != n || busyTotal != scaledWork {
			return false
		}
		if r.Makespan != busyMax+m.Config().BarrierCost {
			return false
		}
		return r.Chunks == chunks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopDeterminism(t *testing.T) {
	m := pi(t)
	costs := SkewedCosts(500, 10, 7)
	a, err := m.RunLoop(costs, omp.Guided{MinChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := m.RunLoop(costs, omp.Guided{MinChunk: 2})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan || a.Chunks != b.Chunks {
			t.Fatal("virtual-time simulation is nondeterministic")
		}
	}
}

func TestMoreCoresFasterUniform(t *testing.T) {
	costs := UniformCosts(4000, 1000)
	var prev Cycles = math.MaxInt64
	for _, cores := range []int{1, 2, 4, 8} {
		cfg := PaperPi3B()
		cfg.Cores = cores
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunLoop(costs, omp.Static{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan >= prev {
			t.Fatalf("%d cores makespan %d not below previous %d", cores, r.Makespan, prev)
		}
		prev = r.Makespan
	}
}

func TestContentionReducesSpeedup(t *testing.T) {
	costs := UniformCosts(4000, 1000)
	noContention := PaperPi3B()
	noContention.MemoryContention = 0
	m0, _ := NewMachine(noContention)
	m1 := pi(t)
	r0, err := m0.RunLoop(costs, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m1.RunLoop(costs, omp.Static{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Speedup() >= r0.Speedup() {
		t.Fatalf("contended speedup %.3f not below uncontended %.3f", r1.Speedup(), r0.Speedup())
	}
}

func TestSkewedCostsShape(t *testing.T) {
	cs := SkewedCosts(4, 10, 5)
	want := []Cycles{10, 15, 20, 25}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("costs = %v", cs)
		}
	}
}

func TestRenderBoardAndSoC(t *testing.T) {
	var b strings.Builder
	if err := RenderBoard(&b, RaspberryPi3BPlus()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"BCM2837B0", "Cortex-A53", "MIMD", "MicroSD", "$59"} {
		if !strings.Contains(out, want) {
			t.Fatalf("board rendering missing %q", want)
		}
	}
	if !RaspberryPi3BPlus().UsesSoC() {
		t.Fatal("the Pi uses an SoC")
	}
	if len(SoCAdvantages()) < 3 {
		t.Fatal("need at least 3 SoC advantages")
	}
}

func TestFlynnTaxonomy(t *testing.T) {
	tax := FlynnTaxonomy()
	if len(tax) != 4 {
		t.Fatalf("%d classes", len(tax))
	}
	codes := map[string]bool{}
	for _, c := range tax {
		codes[c.Code] = true
		if c.Description == "" || c.Example == "" {
			t.Fatalf("class %s incomplete", c.Code)
		}
	}
	for _, want := range []string{"SISD", "SIMD", "MISD", "MIMD"} {
		if !codes[want] {
			t.Fatalf("missing %s", want)
		}
	}
	if got := ClassifyBoard(RaspberryPi3BPlus()); got.Code != "MIMD" {
		t.Fatalf("the Pi classifies as %s", got.Code)
	}
	uni := RaspberryPi3BPlus()
	uni.Cores = 1
	if got := ClassifyBoard(uni); got.Code != "SISD" {
		t.Fatalf("single core classifies as %s", got.Code)
	}
}

func TestMemoryArchitectures(t *testing.T) {
	archs := MemoryArchitectures()
	openmp := 0
	for _, a := range archs {
		if a.UsedByOpenMP {
			openmp++
			if !strings.Contains(a.Name, "Shared") {
				t.Fatalf("OpenMP arch = %q", a.Name)
			}
		}
	}
	if openmp != 1 {
		t.Fatalf("%d architectures claim OpenMP", openmp)
	}
}

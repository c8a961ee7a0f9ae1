package pisim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pblparallel/internal/fault"
	"pblparallel/internal/omp"
)

// TestReplayMatchesPinnedResults replays the grid of schedules, core
// counts, cost vectors and core-slow injection pinned in
// testdata/replay_parent.txt. The file holds the full LoopResult of each
// cell as computed by the simulator's former per-policy chunk lists; the
// dispatcher replay must reproduce every field exactly.
func TestReplayMatchesPinnedResults(t *testing.T) {
	want, err := os.ReadFile("testdata/replay_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	schedules := []omp.Schedule{
		omp.Static{},
		omp.StaticChunk{Chunk: 1}, omp.StaticChunk{Chunk: 2}, omp.StaticChunk{Chunk: 3},
		omp.Dynamic{Chunk: 1}, omp.Dynamic{Chunk: 2}, omp.Dynamic{Chunk: 3},
		omp.Guided{MinChunk: 1}, omp.Guided{MinChunk: 2},
	}
	random := make([]Cycles, 150)
	v := uint64(42)
	for i := range random {
		v = v*6364136223846793005 + 1442695040888963407
		random[i] = Cycles((v>>33)%5000) + 1
	}
	costs := []struct {
		name string
		c    []Cycles
	}{
		{"uniform", UniformCosts(97, 1000)},
		{"skewed", SkewedCosts(240, 200, 40)},
		{"random", random},
		{"empty", nil},
	}
	inj, err := fault.New(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Site: fault.SitePisimCore, Kind: fault.CoreSlow, Prob: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, slow := range []bool{false, true} {
		for _, cores := range []int{1, 2, 4, 5, 8} {
			cfg := PaperPi3B()
			cfg.Cores = cores
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if slow {
				m = m.WithFault(inj)
			}
			for _, cs := range costs {
				for _, s := range schedules {
					r, err := m.RunLoop(cs.c, s)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s cores=%d costs=%s slow=%t makespan=%d seq=%d chunks=%d busy=%v\n",
						r.Policy, cores, cs.name, slow, r.Makespan, r.SequentialCost, r.Chunks, r.CoreBusy)
				}
			}
		}
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d result lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

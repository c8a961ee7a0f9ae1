package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRankOrdering(t *testing.T) {
	// Table 5, first half: Teamwork 4.38 > Implementation 4.16 > ... >
	// Evaluation and Decision Making 3.66.
	scores := map[string]float64{
		"Teamwork":                       4.38,
		"Implementation":                 4.16,
		"Problem Definition":             4.09,
		"Idea Generation":                4.04,
		"Communication":                  4.02,
		"Information Gathering":          3.81,
		"Evaluation and Decision Making": 3.66,
	}
	ranked := Rank(scores)
	want := []string{
		"Teamwork", "Implementation", "Problem Definition", "Idea Generation",
		"Communication", "Information Gathering", "Evaluation and Decision Making",
	}
	if len(ranked) != len(want) {
		t.Fatalf("len = %d", len(ranked))
	}
	for i, name := range want {
		if ranked[i].Name != name {
			t.Fatalf("rank %d = %q, want %q", i+1, ranked[i].Name, name)
		}
		if ranked[i].Rank != i+1 {
			t.Fatalf("rank value %d, want %d", ranked[i].Rank, i+1)
		}
	}
}

func TestRankTies(t *testing.T) {
	ranked := Rank(map[string]float64{"a": 2, "b": 2, "c": 1})
	if ranked[0].Rank != 1 || ranked[1].Rank != 1 {
		t.Fatalf("tied items got ranks %d,%d", ranked[0].Rank, ranked[1].Rank)
	}
	if ranked[2].Rank != 3 {
		t.Fatalf("post-tie rank = %d, want 3 (competition ranking)", ranked[2].Rank)
	}
	// Deterministic alphabetical tiebreak.
	if ranked[0].Name != "a" || ranked[1].Name != "b" {
		t.Fatalf("tie order %q,%q", ranked[0].Name, ranked[1].Name)
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

func TestRankedItemString(t *testing.T) {
	it := RankedItem{Rank: 1, Name: "Teamwork", Score: 4.38}
	if it.String() != "1. Teamwork: 4.38" {
		t.Fatalf("String = %q", it.String())
	}
}

// Property: Rank emits every input exactly once, in non-increasing score
// order, with ranks forming a valid competition ranking.
func TestRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		scores := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			scores[string(rune('a'+i))] = float64(rng.Intn(8)) / 2
		}
		ranked := Rank(scores)
		if len(ranked) != len(scores) {
			return false
		}
		seen := map[string]bool{}
		for i, it := range ranked {
			if seen[it.Name] {
				return false
			}
			seen[it.Name] = true
			if scores[it.Name] != it.Score {
				return false
			}
			if i > 0 && ranked[i-1].Score < it.Score {
				return false
			}
			if i > 0 && ranked[i-1].Score == it.Score && it.Rank != ranked[i-1].Rank {
				return false
			}
			if i > 0 && ranked[i-1].Score > it.Score && it.Rank != i+1 {
				return false
			}
		}
		return ranked[0].Rank == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanIdenticalRankings(t *testing.T) {
	a := map[string]float64{"x": 3, "y": 2, "z": 1, "w": 4}
	rho, err := SpearmanRho(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", rho)
	}
}

func TestSpearmanReversedRankings(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2, "z": 3, "w": 4}
	b := map[string]float64{"x": 4, "y": 3, "z": 2, "w": 1}
	rho, err := SpearmanRho(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, -1, 1e-12) {
		t.Fatalf("rho = %v, want -1", rho)
	}
}

func TestSpearmanPaperTables5and6Agree(t *testing.T) {
	// The paper's emphasis (Table 5) and growth (Table 6) rankings share
	// the same order in both halves; Spearman rho must be 1.
	emphasis := map[string]float64{
		"Teamwork": 4.38, "Implementation": 4.16, "Problem Definition": 4.09,
		"Idea Generation": 4.04, "Communication": 4.02,
		"Information Gathering": 3.81, "Evaluation and Decision Making": 3.66,
	}
	growth := map[string]float64{
		"Teamwork": 4.14, "Implementation": 4.05, "Problem Definition": 3.89,
		"Idea Generation": 3.84, "Communication": 3.83,
		"Information Gathering": 3.62, "Evaluation and Decision Making": 3.36,
	}
	rho, err := SpearmanRho(emphasis, growth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", rho)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := SpearmanRho(map[string]float64{"a": 1}, map[string]float64{"a": 1, "b": 2}); err != ErrMismatchedLengths {
		t.Fatalf("err = %v", err)
	}
	if _, err := SpearmanRho(map[string]float64{"a": 1, "b": 2}, map[string]float64{"a": 1, "b": 2}); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	a := map[string]float64{"a": 1, "b": 2, "c": 3}
	b := map[string]float64{"a": 1, "b": 2, "d": 3}
	if _, err := SpearmanRho(a, b); err == nil {
		t.Fatal("expected missing-key error")
	}
}

func TestFractionalRanksTies(t *testing.T) {
	ranks := fractionalRanks(map[string]float64{"a": 5, "b": 5, "c": 3, "d": 1})
	// a and b tie for ranks 1,2 → both 1.5.
	if ranks["a"] != 1.5 || ranks["b"] != 1.5 {
		t.Fatalf("tied ranks = %v,%v", ranks["a"], ranks["b"])
	}
	if ranks["c"] != 3 || ranks["d"] != 4 {
		t.Fatalf("tail ranks = %v,%v", ranks["c"], ranks["d"])
	}
}

// Property: SpearmanRho is invariant to monotone transforms of scores.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		a := make(map[string]float64, n)
		b := make(map[string]float64, n)
		mono := make(map[string]float64, n)
		// Build distinct scores to avoid tie-handling ambiguity in the
		// invariance statement.
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			a[name] = float64(i)
			b[name] = float64(perm[i])
			mono[name] = float64(i)*float64(i) + 1 // strictly increasing in a
		}
		r1, err1 := SpearmanRho(a, b)
		r2, err2 := SpearmanRho(mono, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRankStableAcrossCalls(t *testing.T) {
	scores := map[string]float64{"a": 1, "b": 1, "c": 1}
	first := Rank(scores)
	for i := 0; i < 10; i++ {
		again := Rank(scores)
		if !sort.SliceIsSorted(again, func(x, y int) bool { return again[x].Name < again[y].Name }) {
			t.Fatal("tie order not alphabetical")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic ranking: %v vs %v", first[j], again[j])
			}
		}
	}
}

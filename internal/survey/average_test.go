package survey

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pblparallel/internal/stats"
)

// floatAverage, floatCategoryAverage and floatComposite are the float64
// arithmetic the integer-sum averages replace: a compensated mean over
// the flattened scores, and the definition averaged with the mean of the
// components.
func floatAverage(er ElementResponse) float64 { return stats.MustMean(er.Scores()) }

func floatCategoryAverage(s *Sheet, c Category) float64 {
	var all []float64
	for _, r := range s.byCategory(c) {
		all = append(all, r.Scores()...)
	}
	return stats.MustMean(all)
}

func floatComposite(er ElementResponse) (float64, error) {
	comps := make([]float64, len(er.Components))
	for i, c := range er.Components {
		comps[i] = float64(c)
	}
	m, err := stats.Mean(comps)
	if err != nil {
		return 0, err
	}
	return (float64(er.Definition) + m) / 2, nil
}

// assertSameBits fails unless the integer-sum averages of er equal the
// float64 arithmetic bit for bit.
func assertSameBits(t *testing.T, er ElementResponse) {
	t.Helper()
	if got, want := er.Average(), floatAverage(er); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v: Average %v, float64 mean %v", er, got, want)
	}
	got, err := er.Composite()
	want, wantErr := floatComposite(er)
	if err != wantErr || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v: Composite (%v, %v), float64 arithmetic (%v, %v)", er, got, err, want, wantErr)
	}
}

// randomSheet answers every element of ins under both categories with
// uniform 1–5 scores.
func randomSheet(ins *Instrument, rng *rand.Rand) *Sheet {
	s := NewSheet(1, EndOfTerm)
	for _, c := range Categories {
		for _, e := range ins.Elements {
			r := ElementResponse{Definition: Likert(1 + rng.Intn(5)), Components: make([]Likert, len(e.Components))}
			for i := range r.Components {
				r.Components[i] = Likert(1 + rng.Intn(5))
			}
			s.Set(c, e.Name, r)
		}
	}
	return s
}

func TestIntegerAveragesMatchFloatBits(t *testing.T) {
	ins := NewBeyerlein()
	maxComps := 0
	for _, e := range ins.Elements {
		maxComps = max(maxComps, len(e.Components))
	}
	sheets := []*Sheet{fullSheet(t, ins, 1, EndOfTerm, 1), fullSheet(t, ins, 2, EndOfTerm, 5)}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		sheets = append(sheets, randomSheet(ins, rng))
	}
	for _, s := range sheets {
		for _, c := range Categories {
			if got, want := s.CategoryAverage(c), floatCategoryAverage(s, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: CategoryAverage %v, float64 mean %v", c, got, want)
			}
			for _, r := range s.byCategory(c) {
				assertSameBits(t, r)
			}
		}
	}
	// The instrument's largest component count, at every uniform score
	// and at alternating extremes.
	for score := Likert(1); score <= 5; score++ {
		er := ElementResponse{Definition: score, Components: make([]Likert, maxComps)}
		for i := range er.Components {
			er.Components[i] = score
		}
		assertSameBits(t, er)
		for i := range er.Components {
			er.Components[i] = Likert(1 + 4*(i%2))
		}
		assertSameBits(t, er)
	}
}

// TestCategoryAverageEmptySheetPanics keeps stats.MustMean's contract
// on an empty category (a componentless Composite's error is pinned by
// TestCompositeEmptyComponents).
func TestCategoryAverageEmptySheetPanics(t *testing.T) {
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, stats.ErrInsufficientData) {
			t.Fatalf("empty sheet CategoryAverage panicked with %v, want ErrInsufficientData", err)
		}
	}()
	NewSheet(1, MidSemester).CategoryAverage(ClassEmphasis)
	t.Fatal("empty sheet CategoryAverage returned")
}

package stats

import (
	"fmt"
	"sort"
)

// RankedItem is one row of a Table-5/6 style ranking.
type RankedItem struct {
	Rank  int // 1-based; ties share the smallest applicable rank
	Name  string
	Score float64
}

// String renders the row as the paper formats ranking entries.
func (r RankedItem) String() string {
	return fmt.Sprintf("%d. %s: %.2f", r.Rank, r.Name, r.Score)
}

// Rank orders the name→score map descending by score and assigns 1-based
// ranks; equal scores (within 1e-9) share a rank, with the next rank
// skipped ("standard competition" ranking). Ties in name order are broken
// alphabetically for deterministic output.
func Rank(scores map[string]float64) []RankedItem {
	items := make([]RankedItem, 0, len(scores))
	for name, s := range scores {
		items = append(items, RankedItem{Name: name, Score: s})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Score != items[j].Score {
			return items[i].Score > items[j].Score
		}
		return items[i].Name < items[j].Name
	})
	const tieEps = 1e-9
	for i := range items {
		if i > 0 && items[i-1].Score-items[i].Score < tieEps {
			items[i].Rank = items[i-1].Rank
		} else {
			items[i].Rank = i + 1
		}
	}
	return items
}

// SpearmanRho computes the Spearman rank correlation between two rankings
// expressed as name→score maps over the same key set. It is used to
// verify that a reproduced ranking preserves the paper's ordering.
func SpearmanRho(a, b map[string]float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrMismatchedLengths
	}
	if len(a) < 3 {
		return 0, ErrInsufficientData
	}
	ra := fractionalRanks(a)
	rb := fractionalRanks(b)
	xs := make([]float64, 0, len(a))
	ys := make([]float64, 0, len(a))
	for name, rank := range ra {
		other, ok := rb[name]
		if !ok {
			return 0, fmt.Errorf("stats: spearman: key %q missing from second ranking", name)
		}
		xs = append(xs, rank)
		ys = append(ys, other)
	}
	res, err := Pearson(xs, ys)
	if err != nil {
		return 0, err
	}
	return res.R, nil
}

// fractionalRanks assigns average ranks (1-based) to tied scores,
// descending by score.
func fractionalRanks(scores map[string]float64) map[string]float64 {
	type kv struct {
		name  string
		score float64
	}
	items := make([]kv, 0, len(scores))
	for n, s := range scores {
		items = append(items, kv{n, s})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].score != items[j].score {
			return items[i].score > items[j].score
		}
		return items[i].name < items[j].name
	})
	out := make(map[string]float64, len(items))
	for i := 0; i < len(items); {
		j := i
		for j < len(items) && items[j].score == items[i].score {
			j++
		}
		avg := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			out[items[k].name] = avg
		}
		i = j
	}
	return out
}

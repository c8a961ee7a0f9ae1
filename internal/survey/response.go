package survey

import (
	"fmt"

	"pblparallel/internal/stats"
)

// Likert is a single item score on the 1–5 scale.
type Likert int

// Valid reports whether the score is on the scale.
func (l Likert) Valid() bool { return l >= 1 && l <= 5 }

// ElementResponse holds one student's scores for one element under one
// category: the definition item plus each component item.
type ElementResponse struct {
	Definition Likert
	Components []Likert
}

// Scores flattens the response to float64s, definition first — the order
// the analysis averages over ("averaging all question scores").
func (er ElementResponse) Scores() []float64 {
	out := make([]float64, 0, 1+len(er.Components))
	out = append(out, float64(er.Definition))
	for _, c := range er.Components {
		out = append(out, float64(c))
	}
	return out
}

// componentSum is the integer sum of the component scores. Scores are
// small integers, so a mean taken from an integer sum is bit-identical
// to the compensated float64 sum stats.Mean takes, in any order, and
// needs no slice.
func (er ElementResponse) componentSum() int {
	sum := 0
	for _, c := range er.Components {
		sum += int(c)
	}
	return sum
}

// Average is the mean of all item scores in the element response.
func (er ElementResponse) Average() float64 {
	return float64(int(er.Definition)+er.componentSum()) / float64(1+len(er.Components))
}

// Composite is the Beyerlein et al. composite of the paper's Tables 5
// and 6: the mean of the definition score (a global view) and the
// average of the component scores (a focused view). A response with no
// components has no composite.
func (er ElementResponse) Composite() (float64, error) {
	if len(er.Components) == 0 {
		return 0, stats.ErrInsufficientData
	}
	return (float64(er.Definition) + float64(er.componentSum())/float64(len(er.Components))) / 2, nil
}

// Sheet is one student's completed survey form for one wave: for every
// element, a response under each category.
type Sheet struct {
	StudentID int
	Wave      Wave
	// Emphasis and Growth map element name → response.
	Emphasis map[string]ElementResponse
	Growth   map[string]ElementResponse
}

// NewSheet allocates an empty sheet for the given student and wave.
func NewSheet(studentID int, wave Wave) *Sheet {
	return &Sheet{
		StudentID: studentID,
		Wave:      wave,
		Emphasis:  make(map[string]ElementResponse),
		Growth:    make(map[string]ElementResponse),
	}
}

// byCategory returns the category's response map.
func (s *Sheet) byCategory(c Category) map[string]ElementResponse {
	if c == ClassEmphasis {
		return s.Emphasis
	}
	return s.Growth
}

// Set records the response for an element under a category.
func (s *Sheet) Set(c Category, element string, r ElementResponse) {
	s.byCategory(c)[element] = r
}

// Get returns the response for an element under a category.
func (s *Sheet) Get(c Category, element string) (ElementResponse, bool) {
	r, ok := s.byCategory(c)[element]
	return r, ok
}

// Validate checks the sheet is complete and on-scale against the
// instrument: every element answered under both categories, component
// counts matching, all scores in 1..5.
func (s *Sheet) Validate(ins *Instrument) error {
	for _, c := range Categories {
		m := s.byCategory(c)
		if len(m) != len(ins.Elements) {
			return fmt.Errorf("survey: sheet %d %v has %d elements, want %d",
				s.StudentID, c, len(m), len(ins.Elements))
		}
		for _, e := range ins.Elements {
			r, ok := m[e.Name]
			if !ok {
				return fmt.Errorf("survey: sheet %d missing %v response for %q", s.StudentID, c, e.Name)
			}
			if !r.Definition.Valid() {
				return fmt.Errorf("survey: sheet %d %v %q definition score %d off scale",
					s.StudentID, c, e.Name, r.Definition)
			}
			if len(r.Components) != len(e.Components) {
				return fmt.Errorf("survey: sheet %d %v %q has %d components, want %d",
					s.StudentID, c, e.Name, len(r.Components), len(e.Components))
			}
			for i, comp := range r.Components {
				if !comp.Valid() {
					return fmt.Errorf("survey: sheet %d %v %q component %d score %d off scale",
						s.StudentID, c, e.Name, i, comp)
				}
			}
		}
	}
	return nil
}

// CategoryAverage is the mean of every item score under the category —
// the per-student variable Table 1's t-tests compare ("created by
// averaging all class emphasis question scores").
// It panics with stats.ErrInsufficientData on a sheet with no responses
// under the category.
func (s *Sheet) CategoryAverage(c Category) float64 {
	n, sum := 0, 0
	for _, r := range s.byCategory(c) {
		n += 1 + len(r.Components)
		sum += int(r.Definition) + r.componentSum()
	}
	if n == 0 {
		panic(stats.ErrInsufficientData)
	}
	return float64(sum) / float64(n)
}

// SkillAverage is the mean of all item scores for one element under one
// category — the per-student per-skill variable Table 4 correlates.
func (s *Sheet) SkillAverage(c Category, element string) (float64, error) {
	r, ok := s.Get(c, element)
	if !ok {
		return 0, fmt.Errorf("survey: no %v response for %q on sheet %d", c, element, s.StudentID)
	}
	return r.Average(), nil
}

// WaveData is the set of all sheets collected in one administration.
type WaveData struct {
	Wave   Wave
	Sheets []*Sheet
}

// CategoryAverages returns one value per student: their category average.
func (w WaveData) CategoryAverages(c Category) []float64 {
	out := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		out[i] = s.CategoryAverage(c)
	}
	return out
}

// SkillAverages returns one value per student for the element/category.
func (w WaveData) SkillAverages(c Category, element string) ([]float64, error) {
	out := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		v, err := s.SkillAverage(c, element)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// CompositeMean returns the across-students mean of the Beyerlein
// composite for the element/category — one cell of Tables 5/6.
func (w WaveData) CompositeMean(c Category, element string) (float64, error) {
	if len(w.Sheets) == 0 {
		return 0, stats.ErrInsufficientData
	}
	vals := make([]float64, len(w.Sheets))
	for i, s := range w.Sheets {
		r, ok := s.Get(c, element)
		if !ok {
			return 0, fmt.Errorf("survey: sheet %d missing %q", s.StudentID, element)
		}
		comp, err := r.Composite()
		if err != nil {
			return 0, err
		}
		vals[i] = comp
	}
	return stats.MustMean(vals), nil
}

// CompositeTable builds the element → composite-mean map for a category —
// a whole column of Table 5 (emphasis) or Table 6 (growth).
func (w WaveData) CompositeTable(ins *Instrument, c Category) (map[string]float64, error) {
	out := make(map[string]float64, len(ins.Elements))
	for _, e := range ins.Elements {
		m, err := w.CompositeMean(c, e.Name)
		if err != nil {
			return nil, err
		}
		out[e.Name] = m
	}
	return out, nil
}

// Validate validates every sheet and checks wave tags agree.
func (w WaveData) Validate(ins *Instrument) error {
	for _, s := range w.Sheets {
		if s.Wave != w.Wave {
			return fmt.Errorf("survey: sheet %d tagged %v inside %v wave data", s.StudentID, s.Wave, w.Wave)
		}
		if err := s.Validate(ins); err != nil {
			return err
		}
	}
	return nil
}

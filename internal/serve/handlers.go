package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/whatif"
)

// maxBody bounds a POST body; a larger one is refused with 413.
const maxBody = 1 << 20

// decodeParams fills dst from the request's parameters, the one way a
// compute route reads them. A POST carries them as a JSON body; a GET's
// query string is first spelt as the JSON object a POST would carry
// (see queryObject), so both methods meet the same decoder and the
// same rules. Empty input keeps every default. The input must be
// exactly one JSON value of at most maxBody bytes: trailing data is
// refused, not ignored. Unknown fields are rejected so typos cannot
// silently select defaults — a mistyped "students" must not hash to
// the paper's cohort. On failure it writes the 400, 405 or 413 and
// returns false.
func decodeParams(w http.ResponseWriter, r *http.Request, dst any) bool {
	var in io.Reader
	src := "body"
	switch r.Method {
	case http.MethodPost:
		in = http.MaxBytesReader(w, r.Body, maxBody)
	case http.MethodGet:
		src = "query"
		obj, err := queryObject(r.URL.RawQuery)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing query: %v", err)
			return false
		}
		in = bytes.NewReader(obj)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Reading on to EOF also enforces maxBody on trailing space.
		if _, err = dec.Token(); err != io.EOF && !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("data after the JSON value")
		}
	}
	if err == io.EOF {
		return true // empty input, or one value and nothing after it
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "parsing %s: %v", src, err)
	return false
}

// queryObject spells a raw query string as a JSON object, pair by pair
// in order: a value that is a JSON literal (7, true, "x") is kept as
// written, any other is quoted as a JSON string. A mistyped value such
// as seed=abc or uncalibrated=1 therefore reaches the decoder as the
// wrong JSON type and is refused, and a repeated key keeps its last
// value, as a repeated body key does.
func queryObject(raw string) ([]byte, error) {
	obj := []byte{'{'}
	for _, pair := range strings.Split(raw, "&") {
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, kerr := url.QueryUnescape(k)
		v, verr := url.QueryUnescape(v)
		if err := errors.Join(kerr, verr); err != nil {
			return nil, err
		}
		if len(obj) > 1 {
			obj = append(obj, ',')
		}
		// Marshaling a string cannot fail.
		kq, _ := json.Marshal(k)
		vq := []byte(v)
		if !json.Valid(vq) {
			vq, _ = json.Marshal(v)
		}
		obj = append(append(append(obj, kq...), ':'), vq...)
	}
	return append(obj, '}'), nil
}

// runParams is the /v1/run request body.
type runParams struct {
	// Seed overrides the study seed; 0 keeps the paper's.
	Seed int64 `json:"seed"`
	// Students overrides the cohort size; 0 keeps the paper's 124.
	// Must be even, >= 10 (the derived female counts stay positive) and
	// at most maxStudents.
	Students int `json:"students"`
	// Uncalibrated selects the ablation response model.
	Uncalibrated bool `json:"uncalibrated"`
}

// maxStudents bounds the cohort a /v1/run or /v1/spring2019 request may
// ask for: both generate one record per student up front, so the bound
// caps what one request can allocate.
const maxStudents = 1_000_000

// normalizeRun resolves defaults into the paper's values and validates,
// returning the resolved study config and the request's content address.
// Normalization happens before hashing so that an omitted seed and the
// paper's explicit seed are the same content address.
func normalizeRun(p runParams) (core.StudyConfig, Key, error) {
	cfg := core.PaperStudy()
	if p.Seed == 0 {
		p.Seed = cfg.Seed
	}
	cfg.Seed = p.Seed
	if p.Students == 0 {
		p.Students = cfg.Cohort.NStudents
	}
	if p.Students > maxStudents {
		return cfg, Key{}, fmt.Errorf("students %d: must be at most %d", p.Students, maxStudents)
	}
	if err := core.ScaleCohort(&cfg.Cohort, p.Students); err != nil {
		return cfg, Key{}, err
	}
	cfg.Calibrate = !p.Uncalibrated
	return cfg, NewKey([]byte(fmt.Sprintf("run|seed=%d|students=%d|calibrated=%t", p.Seed, p.Students, cfg.Calibrate))), nil
}

// handleRun serves one study.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var p runParams
	if !decodeParams(w, r, &p) {
		return
	}
	cfg, k, err := normalizeRun(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		// One-run sweep on a single-worker engine region over the shared
		// scheduler: the admission pool already bounds cross-request
		// parallelism, and the engine's retry layer absorbs transient
		// faults (injected run failures, poisoned barriers) so chaos
		// never changes bytes.
		eng := engine.New(engine.WithWorkers(1), engine.WithRetry(s.cfg.Retries),
			engine.WithRuntime(s.rt))
		res, err := eng.Sweep(ctx, cfg, engine.SequentialSeeds(cfg.Seed), 1)
		if err != nil {
			return nil, err
		}
		if err := res.FirstErr(); err != nil {
			return nil, err
		}
		return Summarize(cfg.Seed, cfg.Calibrate, res.Runs[0].Outcome), nil
	})
}

// sweepParams is the /v1/sweep request body.
type sweepParams struct {
	// Start is the first seed; 0 keeps the historical 20180800.
	Start int64 `json:"start"`
	// Seeds is the sweep width; 0 keeps 40. Bounded by MaxSweepSeeds.
	Seeds int `json:"seeds"`
	// Workers tunes this sweep's engine pool only. Deliberately
	// excluded from the content address: determinism guarantees it
	// cannot change a single response byte.
	Workers int `json:"workers"`
}

// handleSweep serves a sensitivity sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var p sweepParams
	if !decodeParams(w, r, &p) {
		return
	}
	if p.Start == 0 {
		p.Start = 20180800
	}
	if p.Seeds == 0 {
		p.Seeds = 40
	}
	if p.Seeds < 3 || p.Seeds > s.cfg.MaxSweepSeeds {
		writeError(w, http.StatusBadRequest, "seeds %d outside [3, %d]", p.Seeds, s.cfg.MaxSweepSeeds)
		return
	}
	workers := p.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	k := NewKey([]byte(fmt.Sprintf("sweep|start=%d|seeds=%d", p.Start, p.Seeds)))
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		return sensitivity.RunSweep(ctx, p.Start, p.Seeds, sensitivity.Options{
			Workers: workers,
			Retries: s.cfg.Retries,
			Runtime: s.rt,
		})
	})
}

// cohortParams is the /v1/cohort request body.
type cohortParams struct {
	// Students scales the synthetic mega-cohort; 0 keeps 100000.
	Students int `json:"students"`
	// Seed roots every per-student draw; 0 keeps 42.
	Seed int64 `json:"seed"`
	// Batch is the reduction grain; 0 auto-scales. Part of the content
	// address: it fixes how floating-point error associates.
	Batch int `json:"batch"`
	// Workers tunes this request's engine pool only. Excluded from the
	// content address — the reduction is worker-count invariant.
	Workers int `json:"workers"`
}

// handleCohort serves a mega-cohort scenario sweep through the
// streaming sketch reduction.
func (s *Server) handleCohort(w http.ResponseWriter, r *http.Request) {
	var p cohortParams
	if !decodeParams(w, r, &p) {
		return
	}
	if p.Students == 0 {
		p.Students = 100_000
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Students < 1 || p.Students > s.cfg.MaxCohortStudents {
		writeError(w, http.StatusBadRequest, "students %d outside [1, %d]", p.Students, s.cfg.MaxCohortStudents)
		return
	}
	// Validating before hashing refuses a batch whose chunk partials
	// would outgrow the reduction's memory bound before any compute.
	cfg := mega.DefaultConfig(p.Students, p.Seed)
	cfg.Batch = p.Batch
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := p.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	k := NewKey([]byte(fmt.Sprintf("cohort|students=%d|seed=%d|batch=%d", p.Students, p.Seed, p.Batch)))
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		eng := engine.New(engine.WithWorkers(workers), engine.WithRuntime(s.rt))
		return mega.Run(ctx, eng, cfg)
	})
}

// spring2019Params is the /v1/spring2019 query.
type spring2019Params struct {
	// N is the projected cohort size, in [10, maxStudents].
	N int `json:"n"`
	// Seed roots the projection's draws.
	Seed int64 `json:"seed"`
}

// spring2019Response frames the projection with its inputs.
type spring2019Response struct {
	N                   int                `json:"n"`
	Seed                int64              `json:"seed"`
	CorrelationImproved bool               `json:"correlation_improved"`
	Projection          *whatif.Projection `json:"projection"`
}

// handleSpring2019 serves the planned-revision projection.
func (s *Server) handleSpring2019(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	// Preset to the defaults: an explicit n=0 is refused, not defaulted.
	p := spring2019Params{N: 3000, Seed: 42}
	if !decodeParams(w, r, &p) {
		return
	}
	if p.N < 10 || p.N > maxStudents {
		writeError(w, http.StatusBadRequest, "n %d outside [10, %d]", p.N, maxStudents)
		return
	}
	k := NewKey([]byte(fmt.Sprintf("spring2019|n=%d|seed=%d", p.N, p.Seed)))
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		proj, err := whatif.Project(ctx, engine.New(engine.WithWorkers(2), engine.WithRuntime(s.rt)),
			whatif.TeamworkReinforcement(), p.N, p.Seed)
		if err != nil {
			return nil, err
		}
		return spring2019Response{N: p.N, Seed: p.Seed, CorrelationImproved: proj.CorrelationImproved(), Projection: proj}, nil
	})
}

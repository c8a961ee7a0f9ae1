package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/whatif"
)

// maxBody bounds a POST body; a larger one is refused with 413.
const maxBody = 1 << 20

// decodeParams fills dst from a POST's JSON body; on GET it leaves dst
// alone and each handler overlays its query parameters inline (the
// query names match the JSON field tags). An empty body keeps every
// default. The body must be exactly one JSON value of at most maxBody
// bytes: trailing data is refused, not ignored. Unknown JSON fields
// are rejected so typos cannot silently select defaults — a mistyped
// "students" must not hash to the paper's cohort.
func decodeParams(w http.ResponseWriter, r *http.Request, dst any) error {
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("parsing body: %w", err)
		}
		// Reading on to EOF also enforces maxBody on trailing space.
		if _, err := dec.Token(); err != io.EOF {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return fmt.Errorf("parsing body: %w", err)
			}
			return errors.New("parsing body: data after the JSON value")
		}
		return nil
	case http.MethodGet:
		return nil // callers overlay query params themselves
	default:
		return fmt.Errorf("method %s not allowed", r.Method)
	}
}

// queryInt64 reads an integer query parameter, keeping def when absent.
func queryInt64(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid %s %q", name, v)
	}
	return n, nil
}

// runParams is the /v1/run request body.
type runParams struct {
	// Seed overrides the study seed; 0 keeps the paper's.
	Seed int64 `json:"seed"`
	// Students overrides the cohort size; 0 keeps the paper's 124.
	// Must be even and >= 10 (the derived female counts stay positive).
	Students int `json:"students"`
	// Uncalibrated selects the ablation response model.
	Uncalibrated bool `json:"uncalibrated"`
}

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
	if p.Students%2 != 0 || p.Students < 10 {
		return cfg, Key{}, fmt.Errorf("students %d: must be even and >= 10", p.Students)
	}
	// The same derivation core.WithCohortSize applies: n/5 females
	// overall, n/10 of them in section 1.
	cfg.Cohort.NStudents = p.Students
	cfg.Cohort.NFemale = p.Students / 5
	cfg.Cohort.Section1Females = p.Students / 10
	cfg.Calibrate = !p.Uncalibrated
	return cfg, NewKey([]byte(fmt.Sprintf("run|seed=%d|students=%d|calibrated=%t", p.Seed, p.Students, cfg.Calibrate))), nil
}

// handleRun serves one study.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var p runParams
	if err := decodeParams(w, r, &p); err != nil {
		writeError(w, statusForDecode(r, err), "%v", err)
		return
	}
	if r.Method == http.MethodGet {
		seed, err := queryInt64(r, "seed", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		students, err := queryInt64(r, "students", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		p.Seed, p.Students = seed, int(students)
		p.Uncalibrated = r.URL.Query().Get("uncalibrated") == "true"
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
	if err := decodeParams(w, r, &p); err != nil {
		writeError(w, statusForDecode(r, err), "%v", err)
		return
	}
	if r.Method == http.MethodGet {
		start, err := queryInt64(r, "start", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		seeds, err := queryInt64(r, "seeds", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		p.Start, p.Seeds = start, int(seeds)
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
	if err := decodeParams(w, r, &p); err != nil {
		writeError(w, statusForDecode(r, err), "%v", err)
		return
	}
	if r.Method == http.MethodGet {
		students, err := queryInt64(r, "students", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		seed, err := queryInt64(r, "seed", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		batch, err := queryInt64(r, "batch", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		p.Students, p.Seed, p.Batch = int(students), seed, int(batch)
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
	if p.Batch < 0 {
		writeError(w, http.StatusBadRequest, "batch %d negative", p.Batch)
		return
	}
	workers := p.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	k := NewKey([]byte(fmt.Sprintf("cohort|students=%d|seed=%d|batch=%d", p.Students, p.Seed, p.Batch)))
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		cfg := mega.DefaultConfig(p.Students, p.Seed)
		cfg.Batch = p.Batch
		eng := engine.New(engine.WithWorkers(workers), engine.WithRuntime(s.rt))
		return mega.Run(ctx, eng, cfg)
	})
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
	n, err := queryInt64(r, "n", 3000)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seed, err := queryInt64(r, "seed", 42)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n < 10 || n > 1_000_000 {
		writeError(w, http.StatusBadRequest, "n %d outside [10, 1000000]", n)
		return
	}
	k := NewKey([]byte(fmt.Sprintf("spring2019|n=%d|seed=%d", n, seed)))
	s.respond(w, r, k, func(ctx context.Context) (any, error) {
		proj, err := whatif.Project(ctx, engine.New(engine.WithWorkers(2), engine.WithRuntime(s.rt)),
			whatif.TeamworkReinforcement(), int(n), seed)
		if err != nil {
			return nil, err
		}
		return spring2019Response{N: int(n), Seed: seed, CorrelationImproved: proj.CorrelationImproved(), Projection: proj}, nil
	})
}

// statusForDecode maps a decode failure to 413 for an oversize body,
// 405 for bad methods, and 400 otherwise.
func statusForDecode(r *http.Request, err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case r.Method == http.MethodGet || r.Method == http.MethodPost:
		return http.StatusBadRequest
	default:
		return http.StatusMethodNotAllowed
	}
}

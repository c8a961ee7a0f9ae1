package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pblparallel/internal/core"
)

// FuzzRequestKey drives a /v1/run body through the serving path's
// decode → normalize → key steps. No body may panic. For a body the
// path accepts, the same request spelt another way (fields reordered,
// defaults made explicit) must hash to the same key, and a request that
// differs in any one field must hash to a different key.
func FuzzRequestKey(f *testing.F) {
	for _, body := range []string{
		``,
		`{}`,
		`null`,
		`{"seed": 7}`,
		`{"seed": 20180893, "students": 124, "uncalibrated": false}`,
		`{"students": 12, "uncalibrated": true}`,
		`{"seed": -1}`,
		`{"seed": 9223372036854775807, "students": 9223372036854775806}`,
		`{"seed": 7, "seed": 8}`,
		`{"seed": 7} x`,
		`{"students": 13}`,
		`{"seed": 7.5}`,
		`{"sede": 7}`,
		`[1]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, k, ok := decodeRun(body)
		if !ok {
			return
		}
		p := runParams{Seed: cfg.Seed, Students: cfg.Cohort.NStudents, Uncalibrated: !cfg.Calibrate}
		same := fmt.Sprintf(`{"uncalibrated": %t, "students": %d, "seed": %d}`, p.Uncalibrated, p.Students, p.Seed)
		if _, k2, ok := decodeRun([]byte(same)); !ok || k2 != k {
			t.Fatalf("%q and its explicit spelling %q address different entries (accepted=%t)", body, same, ok)
		}
		for _, other := range []runParams{
			{Seed: p.Seed + 1, Students: p.Students, Uncalibrated: p.Uncalibrated},
			{Seed: p.Seed, Students: p.Students + 2, Uncalibrated: p.Uncalibrated},
			{Seed: p.Seed, Students: p.Students, Uncalibrated: !p.Uncalibrated},
		} {
			b, err := json.Marshal(other)
			if err != nil {
				t.Fatal(err)
			}
			if _, k2, ok := decodeRun(b); ok && k2 == k {
				t.Fatalf("%q (%+v) and %s differ in one field but share key %s", body, p, b, k.Hex())
			}
		}
	})
}

// decodeRun runs body through handleRun's decode and normalize steps,
// reporting whether both accepted it.
func decodeRun(body []byte) (core.StudyConfig, Key, bool) {
	var p runParams
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	if err := decodeParams(httptest.NewRecorder(), r, &p); err != nil {
		return core.StudyConfig{}, Key{}, false
	}
	cfg, k, err := normalizeRun(p)
	return cfg, k, err == nil
}

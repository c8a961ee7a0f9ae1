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
// decode → normalize → key steps, and the same bytes as a raw GET query
// string. Neither may panic. For a body the path accepts, the same
// request spelt another way (fields reordered, defaults made explicit,
// or as a GET query) must hash to the same key, and a request that
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
		`seed=7&students=124&uncalibrated=true`,
		`seed=7&seed=8`,
		`uncalibrated=1`,
		`studnets=500`,
		`seed=%zz`,
		`seed="7"&students=[1]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		getRun(string(body))
		p, cfg, k, ok := postRun(body)
		if !ok {
			return
		}
		get := fmt.Sprintf("seed=%d&students=%d&uncalibrated=%t", p.Seed, p.Students, p.Uncalibrated)
		if _, _, k2, ok := getRun(get); !ok || k2 != k {
			t.Fatalf("%q and its GET spelling %q address different entries (accepted=%t)", body, get, ok)
		}
		p = runParams{Seed: cfg.Seed, Students: cfg.Cohort.NStudents, Uncalibrated: !cfg.Calibrate}
		same := fmt.Sprintf(`{"uncalibrated": %t, "students": %d, "seed": %d}`, p.Uncalibrated, p.Students, p.Seed)
		if _, _, k2, ok := postRun([]byte(same)); !ok || k2 != k {
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
			if _, _, k2, ok := postRun(b); ok && k2 == k {
				t.Fatalf("%q (%+v) and %s differ in one field but share key %s", body, p, b, k.Hex())
			}
		}
	})
}

// postRun runs body through handleRun's decode and normalize steps as
// a POST, returning the decoded parameters and reporting whether both
// steps accepted it.
func postRun(body []byte) (runParams, core.StudyConfig, Key, bool) {
	return decodeRun(httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
}

// getRun is postRun for a GET whose raw query string is query.
func getRun(query string) (runParams, core.StudyConfig, Key, bool) {
	r := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	r.URL.RawQuery = query
	return decodeRun(r)
}

func decodeRun(r *http.Request) (runParams, core.StudyConfig, Key, bool) {
	var p runParams
	if !decodeParams(httptest.NewRecorder(), r, &p) {
		return p, core.StudyConfig{}, Key{}, false
	}
	cfg, k, err := normalizeRun(p)
	return p, cfg, k, err == nil
}

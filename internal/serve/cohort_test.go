package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"pblparallel/internal/cohort/mega"
)

// TestCohortEndpoint exercises /v1/cohort end to end: a computed miss,
// a byte-identical hit, worker count excluded from the content address
// (two servers with different pools serve identical bytes), and
// validation of the bounds.
func TestCohortEndpoint(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts8 := newTestServer(t, Config{Workers: 8})

	const body = `{"students": 30000, "seed": 7}`
	respMiss, bodyMiss := post(t, ts1, "/v1/cohort", body, nil)
	if respMiss.StatusCode != http.StatusOK || respMiss.Header.Get("X-Cache") != string(CacheMiss) {
		t.Fatalf("miss: status %d, X-Cache %q: %s", respMiss.StatusCode, respMiss.Header.Get("X-Cache"), bodyMiss)
	}
	respHit, bodyHit := post(t, ts1, "/v1/cohort", body, nil)
	if respHit.Header.Get("X-Cache") != string(CacheHit) || !bytes.Equal(bodyMiss, bodyHit) {
		t.Fatal("hit did not reuse the miss bytes")
	}

	// Different pool size, per-request workers override: same bytes,
	// same content address.
	respOther, bodyOther := post(t, ts8, "/v1/cohort", `{"students": 30000, "seed": 7, "workers": 8}`, nil)
	if respOther.StatusCode != http.StatusOK {
		t.Fatalf("other pool: status %d: %s", respOther.StatusCode, bodyOther)
	}
	if !bytes.Equal(bodyMiss, bodyOther) {
		t.Error("worker count changed /v1/cohort bytes")
	}
	if respMiss.Header.Get("X-Study-Key") != respOther.Header.Get("X-Study-Key") {
		t.Error("worker count changed the content address")
	}
	// The GET spelling honours workers too, and addresses the same entry.
	respGet, bodyGet := get(t, ts1, ts1.URL+"/v1/cohort?students=30000&seed=7&workers=8")
	if respGet.Header.Get("X-Cache") != string(CacheHit) || !bytes.Equal(bodyMiss, bodyGet) {
		t.Errorf("GET spelling: status %d, X-Cache %q, same bytes %t",
			respGet.StatusCode, respGet.Header.Get("X-Cache"), bytes.Equal(bodyMiss, bodyGet))
	}

	var res mega.Result
	if err := json.Unmarshal(bodyMiss, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Overall.Students != 30000 || len(res.Cells) == 0 {
		t.Fatalf("result shape: %d students, %d cells", res.Overall.Students, len(res.Cells))
	}

	// Bounds.
	if resp, b := post(t, ts1, "/v1/cohort", `{"students": -3}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("students -3: status %d: %s", resp.StatusCode, b)
	}
	if resp, b := post(t, ts1, "/v1/cohort", `{"students": 999999999}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized cohort: status %d: %s", resp.StatusCode, b)
	}
	if resp, b := post(t, ts1, "/v1/cohort", `{"batch": -1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative batch: status %d: %s", resp.StatusCode, b)
	}
	// One chunk per student would hold 20M partials until the fold; the
	// chunk bound refuses it before any compute.
	if resp, b := post(t, ts1, "/v1/cohort", `{"students": 20000000, "batch": 1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("20M students in batches of 1: status %d: %s", resp.StatusCode, b)
	}
	// A batch whose chunk count overflows would panic the daemon.
	if resp, b := post(t, ts1, "/v1/cohort", `{"students": 30000, "batch": 9223372036854775807}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing batch: status %d: %s", resp.StatusCode, b)
	}
	if resp, b := post(t, ts1, "/v1/cohort", `{"typo": 1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d: %s", resp.StatusCode, b)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/serve"
	"pblparallel/internal/store"
)

// TestJudge is the verdict's mutation check: a one-byte change to any
// seed in either pass is DRIFT naming exactly that seed, and a restart
// pass with no disk hits fails even when every byte matches.
func TestJudge(t *testing.T) {
	const start = 100
	baseline := [][]byte{[]byte(`{"a": 1}`), []byte(`{"b": 2}`), []byte(`{"c": 3}`)}
	clone := func() [][]byte {
		out := make([][]byte, len(baseline))
		for i, b := range baseline {
			out[i] = bytes.Clone(b)
		}
		return out
	}
	verdict := func(restart bool, hits int64, passes [2][][]byte) serveChaosJSON {
		r := serveChaosJSON{Start: start, Restart: restart, RestartDiskHits: hits}
		r.judge(baseline, passes)
		return r
	}

	for _, tc := range []struct {
		restart bool
		hits    int64
		ok      bool
	}{{false, 0, true}, {true, 3, true}, {true, 0, false}} {
		r := verdict(tc.restart, tc.hits, [2][][]byte{clone(), clone()})
		if !r.Identical || r.OK != tc.ok || len(r.DriftedSeeds) != 0 {
			t.Errorf("identical passes, restart=%t hits=%d: identical=%t ok=%t drifted=%v, want ok=%t",
				tc.restart, tc.hits, r.Identical, r.OK, r.DriftedSeeds, tc.ok)
		}
	}

	for pass := 0; pass < 2; pass++ {
		for seed := range baseline {
			for off := range baseline[seed] {
				passes := [2][][]byte{clone(), clone()}
				passes[pass][seed][off] ^= 1
				r := verdict(true, 3, passes)
				if r.OK || r.Identical || len(r.DriftedSeeds) != 1 || r.DriftedSeeds[0] != start+int64(seed) {
					t.Fatalf("byte %d of seed %d flipped in pass %d: ok=%t drifted=%v",
						off, seed, pass+1, r.OK, r.DriftedSeeds)
				}
			}
		}
	}
}

// chaosOpts is the sweep cmdChaos runs, at 8 seeds and one worker,
// with the default service and persistent-tier fault mix, an engine
// run-fail rule, and the flight recorder writing to a temporary dir.
func chaosOpts(t *testing.T) serveChaosOpts {
	return serveChaosOpts{
		seeds: 8, start: 20180800, workers: 1, retries: 3, faultSeed: 1,
		runtimeRules: []fault.Rule{{Site: fault.SiteEngineRun, Kind: fault.RunFail, Prob: 0.05}},
		probs: serve.FaultProbs{
			QueueFull: 0.05, BackendSlow: 0.1, CacheCorrupt: 0.2,
			StoreCorrupt: 0.1, StoreRead: 0.05, StoreWrite: 0.05,
		},
		restart:   true,
		cacheDir:  t.TempDir(),
		flightrec: true, flightrecDir: t.TempDir(),
		asJSON: true,
	}
}

// TestRunServeChaos runs the serve chaos gate end to end: clean,
// chaotic and restarted daemons all come from serve.Open, and the sweep
// is byte-identical with the restarted pass served from disk.
func TestRunServeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chaos sweep")
	}
	r := runServeChaos(chaosOpts(t))
	if !r.OK || r.RestartDiskHits == 0 {
		t.Fatalf("chaos sweep: ok=%t drifted=%v restart disk hits=%d", r.OK, r.DriftedSeeds, r.RestartDiskHits)
	}
}

// TestRunServeChaosDrift forges the persistent tier: every seed's entry
// holds well-formed bytes that are not the study's, so the restarted
// daemon serves them from disk. The gate must report DRIFT, and the
// drift postmortem, taken while the last daemon is open, must embed
// its TSDB window.
func TestRunServeChaosDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chaos sweep")
	}
	o := chaosOpts(t)
	o.probs.StoreCorrupt, o.probs.StoreRead = 0, 0 // every forged entry is read back
	st, err := store.Open(o.cacheDir, store.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.seeds; i++ {
		canonical := fmt.Sprintf("run|seed=%d|students=124|calibrated=true", o.start+int64(i))
		st.Put(serve.NewKey([]byte(canonical)).DiskKey(), []byte("{\"forged\": true}\n"))
	}
	st.Close()

	r := runServeChaos(o)
	if r.OK || len(r.DriftedSeeds) != o.seeds {
		t.Fatalf("forged tier: ok=%t drifted=%v, want all %d seeds drifted", r.OK, r.DriftedSeeds, o.seeds)
	}
	paths, _ := filepath.Glob(filepath.Join(o.flightrecDir, "flightrec-*chaos-serve-drift*.json"))
	if len(paths) != 1 {
		t.Fatalf("%d drift bundles in %s, want 1", len(paths), o.flightrecDir)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var b flightrec.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.TSDB) == 0 {
		t.Fatal("drift bundle embeds no TSDB window")
	}
}

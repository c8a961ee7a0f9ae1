package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"pblparallel/internal/cohort/mega"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/serve"
)

// encode is the daemon's response encoding: indented JSON and a newline.
func encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// recompute produces c's response bytes in-process through the public
// APIs the daemon's handlers call.
func recompute(ctx context.Context, c call, sz Sizes) ([]byte, error) {
	var v any
	var err error
	switch c.kind {
	case kindRun:
		var o *core.Outcome
		if o, err = core.NewStudy(core.WithSeed(c.id)).Run(ctx); err == nil {
			v = serve.Summarize(c.id, true, o)
		}
	case kindSweep:
		v, err = sensitivity.RunSweep(ctx, c.id, sz.SweepSeeds, sensitivity.Options{})
	case kindCohort:
		v, err = mega.Run(ctx, engine.New(), mega.DefaultConfig(sz.CohortStudents, c.id))
	}
	if err != nil {
		return nil, err
	}
	return encode(v)
}

// checkAll recomputes every distinct call in the ledger, as many at once
// as there are CPUs, and compares each with the digest of the daemon's
// first response to it; every later response was compared with that
// digest as it arrived. It returns one error per mismatch. The ledger
// must no longer be written to.
func checkAll(ctx context.Context, led *ledger, sz Sizes) (checked int, errs []error) {
	calls := make([]served, 0, len(led.first))
	for _, f := range led.first {
		calls = append(calls, f)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(calls); i = int(next.Add(1) - 1) {
				b, err := recompute(ctx, calls[i].c, sz)
				if err == nil && sha256.Sum256(b) != calls[i].sum {
					err = errors.New("served bytes differ from the in-process recomputation")
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s: %w", calls[i].c.key(), err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return len(calls), errs
}

// goldens are requests whose answers the repository pins byte for byte.
var goldens = []struct{ path, body, file string }{
	{"/v1/run", `{}`, "testdata/golden/run_paper_seed.json"},
	{"/v1/cohort", `{"students":1200,"seed":42}`, "testdata/golden/cohort_small.json"},
}

// checkGoldens asks the daemon for each golden request and compares
// the answer with the pinned file under root.
func checkGoldens(ctx context.Context, cl *client, root string) (checked int, errs []error) {
	var buf bytes.Buffer
	for _, g := range goldens {
		checked++
		want, err := os.ReadFile(filepath.Join(root, g.file))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		status, _, err := cl.post(ctx, g.path, []byte(g.body), &buf)
		switch {
		case err != nil:
			errs = append(errs, err)
		case status != 200:
			errs = append(errs, fmt.Errorf("%s %s: status %d", g.path, g.body, status))
		case !bytes.Equal(buf.Bytes(), want):
			errs = append(errs, fmt.Errorf("%s %s: bytes differ from %s", g.path, g.body, g.file))
		}
	}
	return checked, errs
}

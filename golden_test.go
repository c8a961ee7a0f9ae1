package pblparallel

// Golden-file regression: the machine-readable summary of the paper's
// canonical run is pinned byte-for-byte. Any change to the pipeline
// that moves a statistic — intentional or not — fails this test until
// the golden file is regenerated with -update, making drift a reviewed
// decision instead of an accident.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate golden files instead of comparing")

// goldenRunPath is the canonical `pblstudy run -json` output for the
// paper's seed and configuration.
const goldenRunPath = "testdata/golden/run_paper_seed.json"

// goldenCohortPath pins a small `pblstudy cohort -json` run: the
// mega-cohort reduction's floating-point association (grain order),
// cell layout, and serialized field set, all byte-for-byte.
const goldenCohortPath = "testdata/golden/cohort_small.json"

func TestGoldenRunJSON(t *testing.T) {
	goldenCLI(t, goldenRunPath, "run", "-json")
}

func TestGoldenCohortJSON(t *testing.T) {
	// 1200 students over the full 72-cell grid keeps the file small
	// while exercising multi-cell batches and the ordered chunk fold.
	goldenCLI(t, goldenCohortPath, "cohort", "-students", "1200", "-seed", "42", "-json")
}

// TestCohortCLIRefusesChunkOverflow: one chunk per student would hold
// 20M chunk partials until the fold, so the CLI must fail with the
// config's chunk-bound error before computing anything.
func TestCohortCLIRefusesChunkOverflow(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, buildCLI(t), "cohort", "-batch", "1", "-students", "20000000").CombinedOutput()
	const want = "mega: Batch 1 splits 20000000 students into more than 2048 chunks"
	if err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("pblstudy cohort -batch 1 -students 20000000: err=%v, output %q, want an error containing %q", err, out, want)
	}
}

// TestCohortCLIRefusesOversizedCohort: a cohort past what a scheduler
// index pool holds is a config error (exit 1), not a scheduler panic.
func TestCohortCLIRefusesOversizedCohort(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, buildCLI(t), "cohort", "-students", "3000000000")
	out, err := cmd.CombinedOutput()
	const want = "mega: Students 3000000000 outside 0..2147483647"
	if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 || !strings.Contains(string(out), want) {
		t.Fatalf("pblstudy cohort -students 3000000000: err=%v, output %q, want exit 1 and an error containing %q", err, out, want)
	}
}

// buildCLI builds cmd/pblstudy into a temp directory and returns its path.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pblstudy")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/pblstudy")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/pblstudy: %v\n%s", err, out)
	}
	return bin
}

// goldenCLI builds the CLI, runs it with args, and compares stdout
// byte-for-byte against the golden file at path (regenerating under
// -update, which CI refuses).
func goldenCLI(t *testing.T, path string, args ...string) {
	t.Helper()
	cmd := exec.Command(buildCLI(t), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("pblstudy %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	if *update {
		// A CI job that regenerates the baseline would turn the pin into
		// a tautology: whatever drifted becomes the new truth and the
		// gate passes green. Regeneration is a local, reviewed act.
		if os.Getenv("CI") != "" {
			t.Fatal("-update refused: CI must never regenerate the golden baseline (run locally and commit the diff)")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test -run TestGolden -update .`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("pblstudy %s drifted from %s\n%s(if the change is intended, regenerate with `go test -run TestGolden -update .`)",
			strings.Join(args, " "), path, diffExcerpt(got, want))
	}
}

// diffExcerpt renders the first divergent region of two byte bodies as
// a line-oriented excerpt with context, so a CI failure log shows what
// moved instead of two full JSON documents.
func diffExcerpt(got, want []byte) string {
	const context = 3
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	first := -1
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			first = i
			break
		}
	}
	if first < 0 {
		return "(bodies differ only in trailing bytes)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at line %d:\n", first+1)
	lo := first - context
	if lo < 0 {
		lo = 0
	}
	excerpt := func(label string, lines []string) {
		fmt.Fprintf(&b, "--- %s ---\n", label)
		hi := first + context + 1
		if hi > len(lines) {
			hi = len(lines)
		}
		for i := lo; i < hi; i++ {
			marker := "  "
			if i == first {
				marker = "> "
			}
			fmt.Fprintf(&b, "%s%4d: %s\n", marker, i+1, lines[i])
		}
	}
	excerpt("got", gotLines)
	excerpt("want", wantLines)
	return b.String()
}

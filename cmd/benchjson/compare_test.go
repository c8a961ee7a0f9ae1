package main

import (
	"strings"
	"testing"
)

func doc(results ...Result) Document { return Document{Results: results} }

func TestCompareWithinTolerancePasses(t *testing.T) {
	old := doc(Result{Name: "BenchmarkX-8", NsPerOp: 100})
	new := doc(Result{Name: "BenchmarkX-8", NsPerOp: 115})
	lines, regressed := compareDocs(old, new, 0.20)
	if regressed {
		t.Fatalf("+15%% within 20%% tolerance flagged as regression: %v", lines)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	old := doc(Result{Name: "BenchmarkX-8", NsPerOp: 100})
	new := doc(Result{Name: "BenchmarkX-8", NsPerOp: 130})
	_, regressed := compareDocs(old, new, 0.20)
	if !regressed {
		t.Fatal("+30% over 20% tolerance not flagged")
	}
}

func TestCompareNanosecondScaleNoiseTolerated(t *testing.T) {
	// 1.5 -> 1.8 ns/op is +20.6% but 0.3ns of timer granularity, not a
	// regression; the absolute 1ns slack must absorb it.
	old := doc(Result{Name: "BenchmarkDisabledHit-8", NsPerOp: 1.5})
	new := doc(Result{Name: "BenchmarkDisabledHit-8", NsPerOp: 1.8})
	lines, regressed := compareDocs(old, new, 0.20)
	if regressed {
		t.Fatalf("sub-ns jitter flagged as regression: %v", lines)
	}
	// A disabled path that gained real work (1.5 -> 12 ns/op) must fail.
	new = doc(Result{Name: "BenchmarkDisabledHit-8", NsPerOp: 12})
	if _, regressed := compareDocs(old, new, 0.20); !regressed {
		t.Fatal("8x growth on a nanosecond benchmark not flagged")
	}
}

func TestCompareZeroAllocGrowthFails(t *testing.T) {
	// The disabled-path contract: 0 allocs/op must stay 0 even when
	// ns/op is flat.
	old := doc(Result{Name: "BenchmarkDisabled-8", NsPerOp: 10,
		Extra: map[string]float64{"allocs/op": 0}})
	new := doc(Result{Name: "BenchmarkDisabled-8", NsPerOp: 10,
		Extra: map[string]float64{"allocs/op": 1}})
	lines, regressed := compareDocs(old, new, 0.20)
	if !regressed {
		t.Fatalf("allocs/op 0 -> 1 not flagged: %v", lines)
	}
}

// TestCompareUnmatchedBenchmarksNeverFail: a benchmark on only one
// side is reported and never fails the gate by itself, but a run where
// nothing matched fails — that gate compared nothing.
func TestCompareUnmatchedBenchmarksNeverFail(t *testing.T) {
	old := doc(Result{Name: "BenchmarkGone-8", NsPerOp: 10}, Result{Name: "BenchmarkKept-8", NsPerOp: 10})
	new := doc(Result{Name: "BenchmarkNew-8", NsPerOp: 10}, Result{Name: "BenchmarkKept-8", NsPerOp: 10})
	lines, fail := compareDocs(old, new, 0.20)
	if fail {
		t.Fatalf("unmatched benchmarks beside a matched one failed the gate: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "BenchmarkNew") || !strings.Contains(joined, "BenchmarkGone") {
		t.Fatalf("report omits unmatched benchmarks:\n%s", joined)
	}
	if !strings.Contains(joined, "compared 1 of 2 baseline entries") {
		t.Fatalf("report does not count the compared entries:\n%s", joined)
	}
	old = doc(Result{Name: "BenchmarkGone-8", NsPerOp: 10})
	new = doc(Result{Name: "BenchmarkNew-8", NsPerOp: 10})
	if lines, fail := compareDocs(old, new, 0.20); !fail {
		t.Fatalf("a run matching no baseline entry passed: %v", lines)
	}
}

// TestCompareStripsProcsSuffix: a baseline recorded at GOMAXPROCS 1 (no
// suffix) matches a run at GOMAXPROCS 2 ("-2"). ns/op is then not
// compared, since the timings come from a different setup, but
// allocs/op still is.
func TestCompareStripsProcsSuffix(t *testing.T) {
	old := doc(Result{Name: "BenchmarkCacheHitDo", NsPerOp: 100, Extra: map[string]float64{"allocs/op": 0}})
	new := doc(Result{Name: "BenchmarkCacheHitDo-2", NsPerOp: 900, Extra: map[string]float64{"allocs/op": 0}})
	lines, fail := compareDocs(old, new, 0.20)
	joined := strings.Join(lines, "\n")
	if fail || !strings.Contains(joined, "compared 1 of 1") {
		t.Fatalf("suffix-stripped match failed or went uncounted:\n%s", joined)
	}
	if !strings.Contains(joined, "ns/op not compared (GOMAXPROCS 1 in baseline, 2 here)") {
		t.Fatalf("report does not say ns/op was skipped:\n%s", joined)
	}
	new.Results[0].Extra["allocs/op"] = 1
	if lines, fail := compareDocs(old, new, 0.20); !fail {
		t.Fatalf("allocs/op 0 -> 1 across GOMAXPROCS not flagged: %v", lines)
	}
}

// TestCompareNsOnlyOnSameCPU: a baseline from another cpu gates
// allocs/op only.
func TestCompareNsOnlyOnSameCPU(t *testing.T) {
	old := doc(Result{Name: "BenchmarkX-2", NsPerOp: 100})
	old.CPU = "baseline cpu"
	new := doc(Result{Name: "BenchmarkX-2", NsPerOp: 500})
	new.CPU = "other cpu"
	lines, fail := compareDocs(old, new, 0.20)
	if fail || !strings.Contains(strings.Join(lines, "\n"), "ns/op not compared (baseline from another cpu)") {
		t.Fatalf("ns/op compared across cpus: %v", lines)
	}
	new.CPU = old.CPU
	if lines, fail := compareDocs(old, new, 0.20); !fail {
		t.Fatalf("5x ns/op on the same cpu not flagged: %v", lines)
	}
}

// TestCompareMatchesOnPackage: one benchmark name in two packages is
// two entries, each gated against its own package's baseline; a
// baseline recorded without packages still matches on the name alone.
func TestCompareMatchesOnPackage(t *testing.T) {
	old := doc(
		Result{Pkg: "p/a", Name: "BenchmarkX-2", NsPerOp: 100},
		Result{Pkg: "p/b", Name: "BenchmarkX-2", NsPerOp: 1000},
	)
	new := doc(
		Result{Pkg: "p/a", Name: "BenchmarkX-2", NsPerOp: 900},
		Result{Pkg: "p/b", Name: "BenchmarkX-2", NsPerOp: 100},
	)
	lines, fail := compareDocs(old, new, 0.20)
	joined := strings.Join(lines, "\n")
	if !fail || !strings.Contains(joined, "REGRESSED p/a.BenchmarkX:") || !strings.Contains(joined, "compared 2 of 2") {
		t.Fatalf("p/a's 9x not gated against p/a's own baseline:\n%s", joined)
	}
	if strings.Contains(joined, "REGRESSED p/b") {
		t.Fatalf("p/b gated against another package's baseline:\n%s", joined)
	}

	old = doc(Result{Name: "BenchmarkX-2", NsPerOp: 100}, Result{Name: "BenchmarkY-2", NsPerOp: 100})
	new = doc(Result{Pkg: "p/a", Name: "BenchmarkX-2", NsPerOp: 100}, Result{Pkg: "p/c", Name: "BenchmarkY-2", NsPerOp: 100})
	lines, fail = compareDocs(old, new, 0.20)
	joined = strings.Join(lines, "\n")
	if fail || !strings.Contains(joined, "compared 2 of 2") || strings.Contains(joined, "gone") {
		t.Fatalf("package-less baseline did not match on names:\n%s", joined)
	}
}

func TestCompareFoldsRepeatedRunsToMin(t *testing.T) {
	// A -count=3 run with one interference spike: the minimum is clean,
	// so no regression.
	old := doc(Result{Name: "BenchmarkX-8", NsPerOp: 100})
	new := doc(
		Result{Name: "BenchmarkX-8", NsPerOp: 170},
		Result{Name: "BenchmarkX-8", NsPerOp: 105},
		Result{Name: "BenchmarkX-8", NsPerOp: 168},
	)
	lines, regressed := compareDocs(old, new, 0.20)
	if regressed {
		t.Fatalf("min of repeated runs within tolerance flagged: %v", lines)
	}
	// All repetitions slow: a real regression survives the fold.
	new = doc(
		Result{Name: "BenchmarkX-8", NsPerOp: 170},
		Result{Name: "BenchmarkX-8", NsPerOp: 165},
	)
	if _, regressed := compareDocs(old, new, 0.20); !regressed {
		t.Fatal("consistent slowdown not flagged after folding")
	}
}

func TestSplitArgsTrailingFlags(t *testing.T) {
	// The documented invocation: positionals before -tolerance.
	flags, pos := splitArgs([]string{"-compare", "old.json", "new.json", "-tolerance", "0.20"})
	if len(pos) != 2 || pos[0] != "old.json" || pos[1] != "new.json" {
		t.Fatalf("positionals = %v", pos)
	}
	want := []string{"-compare", "-tolerance", "0.20"}
	if len(flags) != len(want) {
		t.Fatalf("flags = %v, want %v", flags, want)
	}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v, want %v", flags, want)
		}
	}
}

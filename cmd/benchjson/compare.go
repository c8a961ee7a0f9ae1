package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// compareDocs checks a new benchmark document against an old baseline
// and returns the human-readable verdict lines plus whether the gate
// fails. The rules are the repo's perf contract:
//
//   - names match with the trailing "-N" GOMAXPROCS suffix stripped
//     (`go test` omits it at GOMAXPROCS 1), so a baseline recorded on a
//     one-CPU host still matches a run on a larger one;
//   - allocs/op may not grow at all, on every matched benchmark — in
//     particular, a disabled-path benchmark that was 0 allocs/op must
//     stay at 0. Allocation counts are deterministic, so any increase
//     is a real code change, not noise;
//   - ns/op is gated only when the baseline ran on the same cpu at the
//     same GOMAXPROCS as the new run (timings from another machine
//     say nothing about this change). It may not grow by more than
//     tolerance (a fraction, e.g. 0.20 for +20%) AND by more than 1ns
//     absolute — single-nanosecond benchmarks (the inlined
//     disabled-path hooks) sit at timer granularity, where a fraction
//     of a nanosecond of noise would read as tens of percent.
//
// Benchmarks present on only one side are reported and never fail the
// comparison by themselves, but a run that matches no baseline entry at
// all fails: a gate that compared nothing has checked nothing.
//
// Repeated names (a `-count=N` run) fold to their minimum — the
// standard noise-robust benchmark statistic: interference only ever
// slows an iteration down, so the minimum is the cleanest observation.
func compareDocs(old, new Document, tolerance float64) (lines []string, fail bool) {
	oldByName := foldMin(old.Results)
	newByName := foldMin(new.Results)
	names := make([]string, 0, len(newByName))
	for name := range newByName {
		names = append(names, name)
	}
	sort.Strings(names)
	compared := 0
	for _, name := range names {
		nr := newByName[name]
		or, ok := oldByName[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  new   %s: no baseline (%.1f ns/op)", name, nr.NsPerOp))
			continue
		}
		compared++
		bad := false
		var detail string
		_, oldProcs := splitProcs(or.Name)
		_, newProcs := splitProcs(nr.Name)
		switch {
		case old.CPU != new.CPU:
			detail = "ns/op not compared (baseline from another cpu)"
		case oldProcs != newProcs:
			detail = fmt.Sprintf("ns/op not compared (GOMAXPROCS %d in baseline, %d here)", oldProcs, newProcs)
		default:
			detail = fmt.Sprintf("%.1f -> %.1f ns/op", or.NsPerOp, nr.NsPerOp)
			if or.NsPerOp > 0 {
				ratio := nr.NsPerOp / or.NsPerOp
				detail = fmt.Sprintf("%s (%+.1f%%)", detail, (ratio-1)*100)
				if ratio > 1+tolerance && nr.NsPerOp-or.NsPerOp > 1.0 {
					bad = true
				}
			}
		}
		oa, na := or.Extra["allocs/op"], nr.Extra["allocs/op"]
		detail = fmt.Sprintf("%s, allocs/op %g -> %g", detail, oa, na)
		if na > oa {
			bad = true
		}
		verdict := "  ok    "
		if bad {
			verdict = "  REGRESSED "
			fail = true
		}
		lines = append(lines, verdict+name+": "+detail)
	}
	goneNames := make([]string, 0)
	for name := range oldByName {
		if _, ok := newByName[name]; !ok {
			goneNames = append(goneNames, name)
		}
	}
	sort.Strings(goneNames)
	for _, name := range goneNames {
		lines = append(lines, fmt.Sprintf("  gone  %s: missing from new run", name))
	}
	lines = append(lines, fmt.Sprintf("compared %d of %d baseline entries", compared, len(oldByName)))
	if compared == 0 {
		lines = append(lines, "no benchmark in the run matches the baseline: nothing was compared")
		fail = true
	}
	return lines, fail
}

// splitProcs splits a benchmark name into its base name and the
// GOMAXPROCS it ran at, read from the "-N" suffix `go test` appends
// when N > 1.
func splitProcs(name string) (base string, procs int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

// foldMin collapses repeated benchmark names, GOMAXPROCS suffix
// stripped, to the run with the smallest ns/op.
func foldMin(results []Result) map[string]Result {
	m := make(map[string]Result, len(results))
	for _, r := range results {
		base, _ := splitProcs(r.Name)
		if prev, ok := m[base]; !ok || r.NsPerOp < prev.NsPerOp {
			m[base] = r
		}
	}
	return m
}

// loadDoc reads one benchjson document from disk.
func loadDoc(path string) (Document, error) {
	var d Document
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runCompare implements `benchjson -compare old.json new.json
// [-tolerance F]`. Exits 1 when any shared benchmark regressed or when
// no benchmark matched the baseline.
func runCompare(paths []string, tolerance float64) {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
		os.Exit(2)
	}
	oldDoc, err := loadDoc(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	newDoc, err := loadDoc(paths[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	lines, fail := compareDocs(oldDoc, newDoc, tolerance)
	fmt.Printf("benchjson compare: %s -> %s (tolerance %.0f%% ns/op on the same cpu and GOMAXPROCS, 0 allocs/op growth)\n",
		paths[0], paths[1], tolerance*100)
	for _, l := range lines {
		fmt.Println(l)
	}
	if fail {
		fmt.Println("benchjson: FAIL — a regression over tolerance, or nothing compared")
		os.Exit(1)
	}
	fmt.Println("benchjson: OK — no regression over tolerance")
}

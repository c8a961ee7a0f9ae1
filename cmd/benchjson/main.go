// Command benchjson turns `go test -bench` output into a JSON record
// file. It reads the benchmark run from stdin, echoes it unchanged to
// stdout (so the run stays visible in the terminal and in CI logs), and
// writes the parsed results to the -o file:
//
//	go test ./internal/engine/ -bench Sweep200 -benchtime 2x -run '^$' \
//	    | go run ./cmd/benchjson -o BENCH_PR2.json
//
// The output is one JSON document with the parsed benchmark lines
// (name, iterations, ns/op, and any B/op / allocs/op / custom-unit
// pairs) plus the raw lines, so results stay machine-diffable across
// PRs without external tooling.
//
// Compare mode diffs two such documents and exits non-zero on
// regression — the CI perf gate:
//
//	go run ./cmd/benchjson -compare old.json new.json -tolerance 0.20
//
// Names match with the "-N" GOMAXPROCS suffix stripped. allocs/op may
// not grow at all (the disabled-path benchmarks pin 0 allocs/op); ns/op
// may grow by at most the tolerance fraction, and is compared only when
// the baseline ran on the same cpu at the same GOMAXPROCS. A run that
// matches no baseline entry fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed `Benchmark...` line.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Extra holds the remaining value/unit pairs, keyed by unit
	// (e.g. "B/op", "allocs/op", "runs/s").
	Extra map[string]float64 `json:"extra,omitempty"`
	Raw   string             `json:"raw"`
}

// Document is the file benchjson writes.
type Document struct {
	Goos      string   `json:"goos,omitempty"`
	Goarch    string   `json:"goarch,omitempty"`
	Pkg       string   `json:"pkg,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Results   []Result `json:"results"`
	RawOutput []string `json:"raw_output"`
}

// parseLine parses one benchmark result line, or returns ok=false for
// anything that is not one.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Raw: line}
	// The remainder is value/unit pairs: "12345 ns/op 67 B/op ...".
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Extra == nil {
			r.Extra = map[string]float64{}
		}
		r.Extra[unit] = v
	}
	return r, true
}

// splitArgs partitions the command line into flag tokens and
// positionals so flags may follow positionals (the documented compare
// invocation puts -tolerance after the two files; the flag package
// alone would stop at the first positional).
func splitArgs(args []string) (flags, positional []string) {
	valueFlags := map[string]bool{"-o": true, "--o": true, "-tolerance": true, "--tolerance": true}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			positional = append(positional, a)
			continue
		}
		flags = append(flags, a)
		if valueFlags[a] && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return flags, positional
}

func main() {
	out := flag.String("o", "", "output JSON file (required unless -compare)")
	compare := flag.Bool("compare", false, "compare two benchjson files: benchjson -compare old.json new.json [-tolerance F]")
	tolerance := flag.Float64("tolerance", 0.20, "with -compare: max allowed fractional ns/op growth")
	flagArgs, positional := splitArgs(os.Args[1:])
	if err := flag.CommandLine.Parse(flagArgs); err != nil {
		os.Exit(2)
	}
	if *compare {
		runCompare(positional, *tolerance)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o output file is required")
		os.Exit(2)
	}

	doc := Document{Results: []Result{}, RawOutput: []string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through
		doc.RawOutput = append(doc.RawOutput, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if r, ok := parseLine(line); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

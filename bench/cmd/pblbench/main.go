// Command pblbench is the end-to-end benchmark of the pbld daemon.
// bench/run.sh builds it and pbld from the checkout and runs it from
// the checkout's root:
//
//	bash bench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
//
// prints every end-to-end metric of one run by name with its unit and,
// as the last line, a JSON object {correct, attempted, failed,
// metrics}; --trace 1 reports the per-layer metrics instead. The
// command exits 1 when any response was wrong or failed.
//
//	bash bench/run.sh -record bench/results/set-a.json -runs 10 -seed 1
//
// makes untraced runs of every workload with seeds 1..10 and writes
// them, with a host fingerprint, to a record file.
//
//	bash bench/run.sh -compare A.json B.json
//
// applies BENCHMARK.json's bounds to B against A; given one record it
// prints each metric's run-to-run spread.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pblparallel/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pblbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", bench.Hit, fmt.Sprintf("workload to run: one of %v", bench.Workloads))
	seed := flag.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
	pbld := flag.String("pbld", ".bench_build/pbld", "pbld binary to benchmark")
	root := flag.String("root", ".", "checkout root, for testdata/golden")
	work := flag.String("work", ".bench_build", "scratch directory for store directories and trace files")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	compare := flag.Bool("compare", false, "compare the record files given as arguments instead of running")
	record := flag.String("record", "", "write untraced runs of every workload to this record file instead of running once")
	runs := flag.Int("runs", 10, "with -record, runs per workload, with seeds seed, seed+1, ...")
	flag.Parse()

	if *compare {
		return compareFiles(*spec, flag.Args())
	}
	if *record != "" {
		return recordRuns(*record, *runs, *seed, *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	res, err := bench.Run(ctx, bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Pbld:     *pbld,
		Root:     *root,
		Work:     *work,
		Sizes:    bench.FullSizes,
		Log:      os.Stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("wrong or failed responses")
	}
	return nil
}

func compareFiles(specPath string, files []string) error {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return err
	}
	var recs []*bench.Record
	for _, f := range files {
		r, err := bench.LoadRecord(f)
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	switch len(recs) {
	case 1:
		bench.Spreads(os.Stdout, spec, recs[0])
		return nil
	case 2:
		if n := bench.Compare(os.Stdout, spec, recs[0], recs[1]); n > 0 {
			return fmt.Errorf("%d metrics regressed", n)
		}
		return nil
	}
	return errors.New("-compare takes one record file (spreads) or two (A then B)")
}

// recordRuns runs this command once per workload and seed, as separate
// processes the way the benchmark is meant to be run, rotating which
// workload goes first in each round, and writes every result to out.
func recordRuns(out string, runs int, seed0 int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := bench.Record{Host: bench.ThisHost(), Seconds: seconds}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "pbld" || f.Name == "root" || f.Name == "work" {
			pass = append(pass, "-"+f.Name, f.Value.String())
		}
	})
	n := len(bench.Workloads)
	for r := 0; r < runs; r++ {
		for k := 0; k < n; k++ {
			wl := bench.Workloads[(r+k)%n]
			s := seed0 + int64(r)
			args := append([]string{"-workload", wl, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", "0"}, pass...)
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			run, err := parseRun(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (%v)", wl, s, err, runErr)
			}
			run.Workload, run.Seed = wl, s
			rec.Runs = append(rec.Runs, *run)
			fmt.Fprintf(os.Stderr, "%s seed %d: correct %t\n", wl, s, run.Result.Correct)
			if err := writeRecord(out, &rec); err != nil {
				return err
			}
			if runErr != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, runErr)
			}
		}
	}
	return nil
}

// parseRun decodes the result a run prints last, and the unscaled
// metrics it logs before it.
func parseRun(stdout []byte) (*bench.RecordedRun, error) {
	var run bench.RecordedRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if u, ok := strings.CutPrefix(t, bench.UnscaledPrefix); ok {
			if err := json.Unmarshal([]byte(u), &run.Unscaled); err != nil {
				return nil, fmt.Errorf("unscaled metrics: %w", err)
			}
		}
		if t != "" {
			last = t
		}
	}
	if err := json.Unmarshal([]byte(last), &run.Result); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &run, nil
}

func writeRecord(path string, rec *bench.Record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

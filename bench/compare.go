package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Spec is the part of BENCHMARK.json that -compare applies.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Host fingerprints the machine a record was made on.
type Host struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"`
}

// ThisHost fingerprints the running machine.
func ThisHost() Host {
	h := Host{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// RecordedRun is one run's result in a record file, with its
// end-to-end metrics before host-speed scaling beside it.
type RecordedRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *Result `json:"result"`
	Unscaled Metrics `json:"unscaled,omitempty"`
}

// Record is a set of untraced runs of one commit.
type Record struct {
	Host    Host          `json:"host"`
	Seconds float64       `json:"seconds"`
	Runs    []RecordedRun `json:"runs"`
}

// LoadRecord reads a record file.
func LoadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects metric over the record's runs of workload; unscaled
// takes each run's value before host-speed scaling where it has one.
func (r *Record) values(workload, metric string, unscaled bool) []float64 {
	var v []float64
	for _, run := range r.Runs {
		m, ok := run.Result.Metrics[metric]
		if u, has := run.Unscaled[metric]; unscaled && has {
			m = u
		}
		if ok && run.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// Compare prints one row per workload and end-to-end metric with each
// record's median and quartiles, and judges B against A by the spec's
// bounds: "regressed" when B's median is worse than A's by more than
// the bound, "unresolved" when either side's quartile spread is wider
// than the bound and B does not beat A on every run, else "ok". It
// returns the number of regressions.
func Compare(w io.Writer, spec *Spec, a, b *Record) int {
	fmt.Fprintf(w, "%-8s %-15s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-8s %-15s missing (A %d runs, B %d runs)\n", wl.Name, m.Name, len(va), len(vb))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := ratio(b2-a2, a2)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
				verdict = "unresolved"
				if beatsAll(vb, va, m.Better == "higher") {
					verdict = "better"
				}
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-8s %-15s %28s %28s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*change, 100*m.Bound, verdict)
		}
	}
	return regressed
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(b, a []float64, higher bool) bool {
	sign := 1.0
	if !higher {
		sign = -1
	}
	for _, x := range b {
		for _, y := range a {
			if sign*x <= sign*y {
				return false
			}
		}
	}
	return true
}

// Spreads prints, for each workload and end-to-end metric of one
// record, the quartile spread as a share of the median next to the
// metric's bound: the steadiness check a benchmark must pass. Beside
// it is the spread of the same runs before host-speed scaling, which
// shows what the scaling buys.
func Spreads(w io.Writer, spec *Spec, r *Record) {
	fmt.Fprintf(w, "%-8s %-15s %5s %12s %8s %9s %6s\n", "workload", "metric", "runs", "median", "spread", "unscaled", "bound")
	spread := func(v []float64) float64 {
		q1, q2, q3 := quartiles(v)
		return 100 * ratio(q3-q1, q2)
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := r.values(wl.Name, m.Name, false)
			if len(v) == 0 {
				fmt.Fprintf(w, "%-8s %-15s missing\n", wl.Name, m.Name)
				continue
			}
			_, q2, _ := quartiles(v)
			fmt.Fprintf(w, "%-8s %-15s %5d %12.5g %7.2f%% %8.2f%% %5.0f%%\n", wl.Name, m.Name, len(v), q2,
				spread(v), spread(r.values(wl.Name, m.Name, true)), 100*m.Bound)
		}
	}
}

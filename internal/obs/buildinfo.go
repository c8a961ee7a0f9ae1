package obs

import (
	"runtime"
	"runtime/debug"
	"time"
)

// processStart pins process_start_time_seconds once at init; Prometheus
// uses the gauge to compute process age and detect restarts.
var processStart = time.Now()

// buildInfoLabels resolves the build_info label set once. Version and
// VCS revision come from debug.ReadBuildInfo, so binaries built with
// module and VCS stamping report their provenance with zero extra
// build machinery; "unknown" fills whatever the build didn't stamp.
func buildInfoLabels() []Label {
	version, revision, modified := "unknown", "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		} else if bi.Main.Version == "(devel)" {
			version = "devel"
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	if modified == "true" {
		revision += "-dirty"
	}
	return []Label{
		{Key: "version", Value: version},
		{Key: "goversion", Value: runtime.Version()},
		{Key: "revision", Value: revision},
	}
}

// BuildInfoGatherer contributes build_info and
// process_start_time_seconds — the identity block every exposition
// should lead with so scraped numbers can be tied to a binary — plus
// the go_goroutines gauge the goroutine-leak rule reads.
func BuildInfoGatherer() Gatherer {
	labels := buildInfoLabels()
	start := float64(processStart.UnixNano()) / 1e9
	return GathererFunc(func() []Family {
		return []Family{
			{
				Name:   "build_info",
				Help:   "Build provenance of the running binary (value is always 1).",
				Type:   "gauge",
				Points: []Point{{Labels: labels, Value: 1}},
			},
			{
				Name:   "process_start_time_seconds",
				Help:   "Start time of the process since unix epoch in seconds.",
				Type:   "gauge",
				Points: []Point{{Value: start}},
			},
			{
				Name:   "go_goroutines",
				Help:   "Goroutines that currently exist.",
				Type:   "gauge",
				Points: []Point{{Value: float64(runtime.NumGoroutine())}},
			},
		}
	})
}

func init() {
	std.RegisterGatherer(BuildInfoGatherer())
}

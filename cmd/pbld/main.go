// Command pbld is the study-as-a-service daemon: it serves the full
// reproduction pipeline over HTTP with a content-addressed result
// cache, singleflight coalescing, bounded-queue admission control, and
// graceful drain on SIGTERM. -cache-dir adds a persistent second cache
// tier under the in-memory LRU — compressed, integrity-verified files
// keyed by the same content addresses — so a restarted daemon serves
// its predecessor's warm set byte-identically (X-Cache: disk) without
// recomputing.
//
// Usage:
//
//	pbld [-addr HOST:PORT] [-workers N] [-queue N] [-cache N]
//	     [-cache-dir DIR] [-cache-disk-max BYTES]
//	     [-timeout D] [-drain D] [-max-seeds N] [-retries N]
//	     [-fault-seed N] [-fault-qfull P] [-fault-slow P] [-fault-corrupt P]
//	     [-fault-store-corrupt P] [-fault-store-read P] [-fault-store-write P]
//	     [-flightrec=BOOL] [-flightrec-dir DIR] [-flightrec-window D]
//	     [-prof=BOOL] [-prof-interval D] [-prof-cpu D]
//	     [-tsdb=BOOL] [-tsdb-interval D] [-tsdb-retention D] [-slo=BOOL]
//	     [-trace FILE] [-metrics-out FILE] [-pprof ADDR]
//
// main parses nothing itself: serve.Command maps the flags onto
// serve.Options, binds the listener, and runs the daemon serve.Open
// assembles — the same one `pblstudy chaos -serve` gates.
//
// Endpoints: POST /v1/run, POST /v1/sweep, POST /v1/cohort,
// GET /v1/spring2019, plus /healthz, /readyz, the Prometheus
// exposition on /metrics, and the /debug family — trace/{id},
// flightrec, sched, prof, tsdb (metrics history range queries), and
// slo (burn rates and error budgets). The embedded TSDB and the rule
// engine run by default (-tsdb, -slo to disable), on one clock that
// ticks every -tsdb-interval: each tick samples the TSDB, then
// evaluates the SLO burn-rate rules and the goroutine-leak and
// scheduler-stall checks over that sample, and every -prof-interval it
// also runs the continuous profiler's cycle. A tripped error budget or
// a runtime anomaly triggers a flight-recorder postmortem with the
// metrics window embedded. `pblstudy serve` runs the identical server.
package main

import (
	"fmt"
	"os"

	"pblparallel/internal/serve"
)

func main() {
	if err := serve.Command("pbld", os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pbld:", err)
		os.Exit(1)
	}
}

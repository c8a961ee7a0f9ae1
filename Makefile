GO ?= go

.PHONY: verify ci build test race vet fmt bench-vet bench-record bench-check bench-smoke cover-stats golden fuzz fuzz-smoke chaos chaos-serve persist-check sweep-stray

## verify: the tier-1 gate — vet, gofmt, build, race-test everything,
## pin the golden outputs, smoke the fuzz targets on their seed corpora,
## hold the sketch files to their coverage floor, and vet and test the
## separate benchmark module against this tree. The stray-baseline
## sweep runs first so a leftover benchjson scratch file can never be
## mistaken for (or sorted above) a committed BENCH_PR* baseline.
## The stages run as sequential sub-makes (not parallel prerequisites)
## so `make -j verify` still stops at the first failure instead of
## racing vet diagnostics against a doomed race run.
verify:
	$(MAKE) sweep-stray
	$(MAKE) vet
	$(MAKE) fmt
	$(MAKE) build
	$(MAKE) race
	$(MAKE) golden
	$(MAKE) fuzz-smoke
	$(MAKE) cover-stats
	$(MAKE) bench-vet

## sweep-stray: remove benchjson scratch output wherever it landed.
## BENCH_BASELINE below globs BENCH_PR*.json, which cannot match
## *.new.json — but a stray scratch file at the root is still noise
## (PR 7 left one behind), so the gate sweeps it unconditionally.
sweep-stray:
	rm -f ./*.new.json ./internal/*.new.json

## ci: what the GitHub Actions verify job runs; alias of verify.
ci: verify

vet:
	$(GO) vet ./...

## fmt: fail when gofmt would reformat any Go file in the tree,
## naming the files; fix them with `gofmt -w <file>`.
fmt:
	@files=$$(gofmt -l .) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench-vet: bench/ is its own module (it replaces pblparallel with
## this checkout), so `./...` above never builds it; vet and test it
## here so an API change it depends on fails the gate, not the
## benchmark run.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## golden: byte-compare `pblstudy run -json` and `pblstudy cohort
## -json` against testdata/golden. Regenerate a deliberately changed
## baseline with:
##   go test -run TestGolden -update .
golden:
	$(GO) test -run TestGolden .

## FUZZ_TARGETS: every fuzz target as package:Target, the one list
## fuzz-smoke and fuzz loop over; fuzz-run runs each for $(1) and stops
## at the first failure.
FUZZ_TARGETS = \
	./internal/obs:FuzzHistQuantile \
	./internal/obs:FuzzTraceparent \
	./internal/obs:FuzzSpanArgs \
	./internal/armsim:FuzzAsmParse \
	./internal/survey:FuzzSurveyScores \
	./internal/stats:FuzzMomentsMerge \
	./internal/stats:FuzzCoMomentsMerge \
	./internal/store:FuzzStoreEntryDecode \
	./internal/serve:FuzzRequestKey
fuzz-run = for t in $(FUZZ_TARGETS); do \
	echo "$(GO) test $${t%:*} -run '^$$' -fuzz $${t\#*:} -fuzztime $(1)"; \
	$(GO) test $${t%:*} -run '^$$' -fuzz $${t\#*:} -fuzztime $(1) || exit 1; \
	done

## fuzz-smoke: 2s of coverage-guided fuzzing per target — enough to
## exercise the corpora plus a few thousand mutations in CI.
fuzz-smoke:
	@$(call fuzz-run,2s)

## fuzz: the longer run — 30s per target locally, raised by the
## nightly workflow with FUZZTIME=5m.
FUZZTIME ?= 30s
fuzz:
	@$(call fuzz-run,$(FUZZTIME))

## cover-stats: hold the mergeable-sketch implementation to a >=90%
## statement-coverage floor. The sketches are the numeric foundation
## every reduction now folds through; an uncovered branch there is an
## uncovered associativity or compensation path. The awk pass reads
## the raw coverprofile (file:lo,hi numStmts hitCount) and weights by
## statement count, scoped to sketch.go only so unrelated stats code
## cannot dilute or subsidize the floor.
cover-stats:
	$(GO) test ./internal/stats -coverprofile=cover-stats.out -count=1 > /dev/null
	@awk -F'[ ]' '/internal\/stats\/sketch\.go:/ { total += $$2; if ($$3 > 0) covered += $$2 } \
	  END { pct = 100 * covered / total; \
	    printf "sketch.go statement coverage: %.1f%% (floor 90%%)\n", pct; \
	    if (pct < 90) exit 1 }' cover-stats.out
	@rm -f cover-stats.out

## chaos: the fault-injection sweep (CHAOS_SEEDS seeds, default 200),
## run at worker counts 1, 2, and 8 on dedicated work-stealing
## runtimes; exits non-zero if any statistic drifts under recoverable
## faults at any count. The nightly workflow raises CHAOS_SEEDS.
CHAOS_SEEDS ?= 200
chaos:
	$(GO) run ./cmd/pblstudy chaos -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## chaos-serve: the same sweep issued as /v1/run requests against the
## HTTP service with the service-layer fault mix armed (injected
## queue-full sheds, slow backends, memory-cache corruption, and the
## persistent tier's corrupt/read/write faults) on top of the runtime
## mix. The second pass runs on a freshly restarted daemon over the
## same cache directory: every response must stay byte-identical to
## the clean server across the restart, served from the disk tier, at
## each worker count.
chaos-serve:
	$(GO) run ./cmd/pblstudy chaos -serve -workerset 1,2,8 -seeds $(CHAOS_SEEDS)

## persist-check: the cache-persistence gate — build pbld, populate a
## -cache-dir over HTTP, SIGTERM, restart on the same directory, and
## fail unless every replayed request comes back byte-identical as a
## verified disk hit (asserted via store_disk_hits_total in /metrics).
persist-check:
	./scripts/cache_persistence.sh

## GATED_BENCH is the union perf surface the bench-check gate re-runs:
## every deterministic micro benchmark pinned by a committed baseline —
## fault hooks, obs spans and histogram observations, the flight
## recorder's Event hook, the scheduler's hot paths plus Introspect,
## the profiler's disabled path, the serve cache hit, one whole
## study (BenchmarkStudyEndToEnd, so the study kernel's allocation
## count cannot creep back up), and the 500k-student cohort at one and
## two workers (BenchmarkMegaRun, so a lost parallel speedup fails the
## w2 entry). The HTTP load
## benchmarks are throughput records for EXPERIMENTS.md, far too
## machine-sensitive for a 20% gate, so they stay out of the surface.
GATED_BENCH = { $(GO) test ./internal/fault/ -bench . -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/ -bench 'Span|Hist' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/flightrec/ -bench Event -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/prof/ -bench . -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/sched/ -bench 'DequeOwner|IndexPoolNext|StealOverhead|Introspect' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/stats/ -bench 'MomentsAdd|MomentsMerge|CoMomentsAdd' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/store/ -bench 'DiskHit|Compress|Decompress' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/obs/tsdb/ -bench 'TSDBAppend|TSDBQuery' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/serve/ -bench 'CacheHitDo' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test ./internal/cohort/mega/ -bench 'MegaRun' -benchmem -count $(BENCH_COUNT) -run '^$$' && \
  $(GO) test . -bench 'StudyEndToEnd' -benchmem -count $(BENCH_COUNT) -run '^$$'; }
BENCH_COUNT ?= 3

## bench-record: record the gated union above, single-count, as the
## newest committed baseline BENCH_PR$(N).json, e.g.
##   make bench-record N=12
## Committed baselines are never regenerated; a PR that changes the
## perf surface records a new one.
bench-record: BENCH_COUNT = 1
bench-record:
	@test -n "$(N)" || { echo "usage: make bench-record N=<pr>"; exit 1; }
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_PR$(N).json

## bench-check: re-run the gated perf surface and compare it with the
## NEWEST committed BENCH_PR*.json baseline. Names match with the "-N"
## GOMAXPROCS suffix stripped. Any allocs/op growth fails (the disabled
## paths pin 0). ns/op growth over 20% fails only when the baseline was
## recorded on the same cpu at the same GOMAXPROCS; otherwise the report
## says ns/op was not compared. A run that matches no baseline entry
## fails too, and the report ends with the compared count. Entries only
## one side has never fail by themselves, so the newest baseline gates
## everything it lists. Scratch output goes to BENCH.new.json
## (gitignored; the BENCH_PR* glob cannot pick it up as a baseline).
## -count=3: benchjson's compare folds repeated runs to their minimum,
## the noise-robust statistic, so one interference spike on a shared CI
## machine cannot fail the gate.
BENCH_BASELINE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)
bench-check:
	$(GATED_BENCH) | $(GO) run ./cmd/benchjson -o BENCH.new.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) BENCH.new.json -tolerance 0.20
	rm -f BENCH.new.json

## bench-smoke: a short correctness run of the end-to-end benchmark
## against the real pbld, on the memory-hit and compute workloads.
## pblbench exits 1 on any wrong or failed response or golden mismatch,
## so this is the one gate that serves cache keys through the daemon
## binary. The timings it prints are not checked.
bench-smoke:
	bash bench/run.sh --workload hit --seconds 2
	bash bench/run.sh --workload compute --seconds 2

// Package fault is the deterministic fault-injection subsystem: a
// seeded injector that decides, at named sites in the runtimes, whether
// to perturb execution — drop or delay an MPI message, stall or panic
// an omp team member, slow a simulated Pi core, or fail an engine run
// with a transient error.
//
// The design constraint mirrors internal/obs: injection must be
// reproducible and, when disabled, free. Every decision is a pure
// function of (plan seed, site, key), where the key is deterministic
// local state supplied by the call site — an MPI (sender, receiver,
// sequence, attempt) tuple, an omp (loop epoch, chunk start) pair, an
// engine (run index, attempt) pair — never a shared counter whose value
// depends on goroutine scheduling. Two executions of the same program
// under the same plan therefore inject exactly the same faults, no
// matter how the scheduler interleaves them, which is what makes a
// chaos run debuggable. The disabled path is a nil receiver check: no
// map lookups, no allocations, no atomic traffic.
//
// Faults come in two resilience classes. Recoverable faults (message
// drop under reliable delivery, thread stalls, core slowdowns) are
// absorbed inside the runtime that injected them and never change what
// the program computes. Transient faults (injected panics, engine run
// failures, delivery-budget exhaustion) surface as errors wrapping
// ErrTransient, the signal the engine's retry layer keys on.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

// The fault kinds, one per perturbation the runtimes model.
const (
	// MsgDrop discards an MPI message on the wire; recoverable only
	// under the communicator's reliable-delivery mode.
	MsgDrop Kind = iota
	// MsgDelay sleeps before delivering an MPI message.
	MsgDelay
	// MsgDup delivers an MPI message twice; reliable delivery dedups.
	MsgDup
	// ThreadStall sleeps an omp team member at a barrier or chunk claim.
	ThreadStall
	// ThreadPanic panics an omp team member with an *Injected cause,
	// poisoning the region's barriers.
	ThreadPanic
	// CoreSlow multiplies a simulated Pi core's virtual-time costs.
	CoreSlow
	// RunFail fails an engine run with a transient error before the
	// study executes — the cheapest way to exercise the retry path.
	RunFail
	// QueueFull sheds a request at the service admission queue as if
	// the queue were at capacity; the client recovers by retrying after
	// the advertised Retry-After.
	QueueFull
	// BackendSlow delays a request's study computation inside the
	// service worker — latency only, never bytes.
	BackendSlow
	// CacheCorrupt flips bytes in a cached response body before the
	// integrity check; the cache detects the bad digest, evicts the
	// entry, and recomputes.
	CacheCorrupt
	// DiskReadErr fails a persistent-store read as if the file were
	// unreadable; the store treats it as a miss and the request is
	// served by recompute, so the fault is recoverable by construction.
	DiskReadErr
	// DiskWriteErr fails a persistent-store write; the entry simply
	// never spills to disk, costing a future disk hit but never bytes.
	DiskWriteErr

	nKinds
)

// kindNames label kinds in stats, errors, and trace args.
var kindNames = [nKinds]string{
	MsgDrop: "msg-drop", MsgDelay: "msg-delay", MsgDup: "msg-dup",
	ThreadStall: "thread-stall", ThreadPanic: "thread-panic",
	CoreSlow: "core-slow", RunFail: "run-fail",
	QueueFull: "queue-full", BackendSlow: "backend-slow",
	CacheCorrupt: "cache-corrupt",
	DiskReadErr:  "disk-read-err", DiskWriteErr: "disk-write-err",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Site names one injection point in a runtime. Rules bind to sites;
// call sites pass their own constant.
type Site string

// The instrumented sites.
const (
	// SiteMPISend is the Send/Recv wire boundary (keyed by sender,
	// receiver, sequence number, and delivery attempt).
	SiteMPISend Site = "mpi.send"
	// SiteOMPBarrier is barrier entry (keyed by thread and the thread's
	// barrier count).
	SiteOMPBarrier Site = "omp.barrier"
	// SiteOMPFor is a work-sharing chunk claim (keyed by loop epoch and
	// chunk start index, so the decision is independent of which thread
	// wins the chunk).
	SiteOMPFor Site = "omp.for"
	// SiteEngineRun is the engine's per-attempt run boundary (keyed by
	// run index and attempt).
	SiteEngineRun Site = "engine.run"
	// SitePisimCore is a simulated core (keyed by core id).
	SitePisimCore Site = "pisim.core"
	// SiteServeQueue is the study service's admission decision (keyed
	// by request content hash and per-key admission attempt, so the
	// decision is independent of how concurrent requests interleave).
	SiteServeQueue Site = "serve.queue"
	// SiteServeBackend is the service worker about to compute a study
	// (keyed by request content hash).
	SiteServeBackend Site = "serve.backend"
	// SiteServeCache is a result-cache read (keyed by request content
	// hash and per-key hit count).
	SiteServeCache Site = "serve.cache"
	// SiteStoreRead is a persistent-store file read (keyed by request
	// content hash and per-key read count). DiskReadErr there turns the
	// read into a miss; the entry survives on disk for the next read.
	SiteStoreRead Site = "store.read"
	// SiteStoreWrite is a persistent-store file write (keyed by request
	// content hash). DiskWriteErr there drops the spill — the entry
	// stays memory-only and a later miss recomputes it.
	SiteStoreWrite Site = "store.write"
	// SiteStoreCorrupt is a persistent-store read about to verify its
	// payload (keyed like SiteStoreRead). CacheCorrupt there flips
	// bytes so the CRC32/SHA-256 check fails; the store heals by
	// deleting the file and letting the caller recompute.
	SiteStoreCorrupt Site = "store.corrupt"
	// SiteCohortBatch is the mega-cohort runner's per-batch boundary
	// (keyed by batch index, so the decision is independent of which
	// worker claims the batch). RunFail there forces a deterministic
	// batch recompute; ThreadStall adds latency only.
	SiteCohortBatch Site = "cohort.batch"
)

// Rule arms one fault kind at one site with a firing probability and an
// optional magnitude (seconds for MsgDelay/ThreadStall, extra slowdown
// factor for CoreSlow; zero selects the kind's default).
type Rule struct {
	Site Site
	Kind Kind
	Prob float64
	Max  float64
}

// Plan is a complete injection schedule: a seed for the SplitMix64
// decision stream plus the armed rules. Rules at the same site are
// evaluated in plan order and the first that fires wins, so a plan is a
// priority list, not an independent product.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Site == "" {
			return fmt.Errorf("fault: rule %d: empty site", i)
		}
		if r.Kind >= nKinds {
			return fmt.Errorf("fault: rule %d: unknown kind %d", i, r.Kind)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("fault: rule %d (%s@%s): probability %v outside [0,1]", i, r.Kind, r.Site, r.Prob)
		}
		if r.Max < 0 {
			return fmt.Errorf("fault: rule %d (%s@%s): negative magnitude %v", i, r.Kind, r.Site, r.Max)
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer. It is the entire source of
// randomness here: chained applications give the decision stream, so
// every draw is stateless and order-independent.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix2 folds two deterministic key components into one draw key.
func Mix2(a, b uint64) uint64 { return splitmix64(splitmix64(a) ^ b) }

// Mix3 folds three key components.
func Mix3(a, b, c uint64) uint64 { return splitmix64(Mix2(a, b) ^ c) }

// Mix4 folds four key components.
func Mix4(a, b, c, d uint64) uint64 { return splitmix64(Mix3(a, b, c) ^ d) }

// unit maps a draw to [0,1) with 53-bit resolution.
func unit(u uint64) float64 { return float64(u>>11) * 0x1p-53 }

// siteSalt derives a per-site, per-rule salt (FNV-1a over the site name
// mixed with the rule index).
func siteSalt(site Site, idx int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	return splitmix64(h ^ uint64(idx)<<32)
}

// compiledRule is a rule bound to its draw salt.
type compiledRule struct {
	kind Kind
	prob float64
	max  float64
	salt uint64
}

// Fault is one fired injection: the kind, the rule's magnitude, and a
// private randomness word the magnitude helpers scale from.
type Fault struct {
	Kind Kind
	Max  float64
	r    uint64
}

// Duration scales the fault's randomness into (0, Max] seconds, with a
// 500µs default when the rule left Max zero — the stall/delay helper.
func (f Fault) Duration() time.Duration {
	max := f.Max
	if max <= 0 {
		max = 500e-6
	}
	d := time.Duration((unit(f.r) + 1) / 2 * max * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// Factor scales the fault's randomness into a slowdown multiplier
// 1 + (0, Max], with Max defaulting to 1.0 (at worst a 2× slower core).
func (f Fault) Factor() float64 {
	max := f.Max
	if max <= 0 {
		max = 1.0
	}
	return 1 + (unit(f.r)+1)/2*max
}

// Stats aggregates an injector's activity. Forked injectors share their
// parent's stats, so a whole chaos sweep reads back as one ledger.
type Stats struct {
	injected  [nKinds]counter
	recovered counter
	retries   counter
}

// counter is a tiny atomic counter (kept private so Stats stays
// copy-proof behind the snapshot).
type counter struct{ v atomic.Uint64 }

// StatsSnapshot is a point-in-time copy of an injector's ledger.
type StatsSnapshot struct {
	// Injected is the total fired faults; ByKind breaks it down.
	Injected uint64            `json:"injected"`
	ByKind   map[string]uint64 `json:"by_kind,omitempty"`
	// Recovered counts faults absorbed without changing program output
	// (stalls slept through, drops redelivered, failed runs retried to
	// success).
	Recovered uint64 `json:"recovered"`
	// Retries counts re-deliveries and run re-executions spent
	// absorbing the faults.
	Retries uint64 `json:"retries"`
}

// Process-wide counters: injections surface in -metrics-out exposition
// through the obs registry regardless of which injector fired them.
var (
	injectedTotal = obs.Metrics().Counter("fault_injected_total",
		"Faults fired by the injection layer.")
	recoveredTotal = obs.Metrics().Counter("fault_recovered_total",
		"Injected faults absorbed without changing program output.")
	retriesTotal = obs.Metrics().Counter("fault_retries_total",
		"Re-deliveries and run re-executions spent recovering injected faults.")
)

// Injector decides fault firings for one plan. The zero value and the
// nil pointer are both inert; construct with New. All methods are safe
// for concurrent use and safe on a nil receiver — the disabled path is
// a single pointer check.
type Injector struct {
	seed  uint64
	rules map[Site][]compiledRule
	stats *Stats
	trace obs.TraceID // stamps flight-recorder events; never feeds decisions
}

// New compiles a plan into an injector.
func New(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		seed:  splitmix64(uint64(p.Seed)),
		rules: make(map[Site][]compiledRule, len(p.Rules)),
		stats: &Stats{},
	}
	for i, r := range p.Rules {
		if r.Prob == 0 {
			continue
		}
		in.rules[r.Site] = append(in.rules[r.Site],
			compiledRule{kind: r.Kind, prob: r.Prob, max: r.Max, salt: siteSalt(r.Site, i)})
	}
	return in, nil
}

// Fork derives an injector with the same rules and shared stats but a
// salted decision stream. The engine forks per (run index, attempt) so
// a retried run draws fresh faults — deterministically, because the
// salt is logical, not temporal. Fork of nil is nil, keeping call sites
// unconditional.
func (in *Injector) Fork(salt uint64) *Injector {
	if in == nil {
		return nil
	}
	return &Injector{seed: splitmix64(in.seed ^ splitmix64(salt)), rules: in.rules, stats: in.stats, trace: in.trace}
}

// WithTrace derives an injector whose fired faults are stamped with the
// request trace ID in flight-recorder events. The decision stream is
// untouched — correlation must never change which faults fire. Nil-safe.
func (in *Injector) WithTrace(id obs.TraceID) *Injector {
	if in == nil || id.IsZero() {
		return in
	}
	return &Injector{seed: in.seed, rules: in.rules, stats: in.stats, trace: id}
}

// Hit reports the fault firing at site for the given deterministic key,
// if any. Rules are evaluated in plan order; the first hit wins. Safe
// and allocation-free on a nil receiver.
func (in *Injector) Hit(site Site, key uint64) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	rules := in.rules[site]
	if len(rules) == 0 {
		return Fault{}, false
	}
	k := splitmix64(key)
	for _, r := range rules {
		u := splitmix64(in.seed ^ r.salt ^ k)
		if unit(u) < r.prob {
			in.stats.injected[r.kind].v.Add(1)
			injectedTotal.Inc()
			flightrec.Active().Event(flightrec.KindFaultInjected, string(site), key, in.trace)
			return Fault{Kind: r.kind, Max: r.max, r: splitmix64(u)}, true
		}
	}
	return Fault{}, false
}

// MarkRecovered records n injected faults as absorbed. Nil-safe.
func (in *Injector) MarkRecovered(n int) {
	if in == nil || n <= 0 {
		return
	}
	in.stats.recovered.v.Add(uint64(n))
	recoveredTotal.Add(int64(n))
}

// MarkRetry records one recovery retry (a message re-delivery or an
// engine run re-execution). Nil-safe.
func (in *Injector) MarkRetry() {
	if in == nil {
		return
	}
	in.stats.retries.v.Add(1)
	retriesTotal.Inc()
}

// Stats snapshots the injector's (shared, fork-wide) ledger. On a nil
// injector it returns zeros.
func (in *Injector) Stats() StatsSnapshot {
	if in == nil {
		return StatsSnapshot{}
	}
	s := StatsSnapshot{
		Recovered: in.stats.recovered.v.Load(),
		Retries:   in.stats.retries.v.Load(),
	}
	for k := Kind(0); k < nKinds; k++ {
		if n := in.stats.injected[k].v.Load(); n > 0 {
			if s.ByKind == nil {
				s.ByKind = make(map[string]uint64)
			}
			s.ByKind[k.String()] = n
			s.Injected += n
		}
	}
	return s
}

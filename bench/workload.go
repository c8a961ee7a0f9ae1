package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Sizes are the request shapes and amounts of work one run uses.
// FullSizes is the benchmark's; the smoke test shrinks them.
type Sizes struct {
	HitKeys        int           // distinct /v1/run keys on hit
	TieredKeys     int           // persisted keys on tiered, requested by Zipf rank
	TieredFresh    float64       // share of tiered's requests for a never-seen key
	TieredRate     float64       // tiered's open-loop arrival rate, req/s
	TieredCache    int           // memory-tier entries on tiered (-cache)
	SweepSeeds     int           // seeds per /v1/sweep
	CohortStudents int           // students per /v1/cohort
	SetupStarts    int           // fresh daemon starts behind setup_s
	Warmup         time.Duration // untimed load before the timed window
	Slices         int           // parts of the timed window, with the host's speed measured between them
	RefRounds      int           // reference work per CPU behind one host-speed reading (refRounds is nominal)
	ProbeStudies   int           // studies behind the core, encode and store probes
	ProbeCalls     int           // calls behind each handler probe
	ProbeBatches   int           // sweeps and cohorts behind their probes
}

// FullSizes are the sizes the benchmark runs.
var FullSizes = Sizes{
	HitKeys:        64,
	TieredKeys:     1024,
	TieredFresh:    tieredTarget.Miss,
	TieredRate:     200,
	TieredCache:    tieredCache,
	SweepSeeds:     20,
	CohortStudents: 500_000,
	SetupStarts:    3,
	Warmup:         time.Second,
	Slices:         10,
	RefRounds:      refRounds,
	ProbeStudies:   64,
	ProbeCalls:     4000,
	ProbeBatches:   3,
}

// Workload names, in the order BENCHMARK.json lists them.
const (
	Hit     = "hit"
	Compute = "compute"
	Tiered  = "tiered"
	Sweep   = "sweep"
	Cohort  = "cohort"
)

// Workloads lists every workload name.
var Workloads = []string{Hit, Compute, Tiered, Sweep, Cohort}

// kind says which endpoint a request goes to, and so how its bytes
// are recomputed in-process.
type kind int

const (
	kindRun kind = iota
	kindSweep
	kindCohort
)

var kindPath = [...]string{kindRun: "/v1/run", kindSweep: "/v1/sweep", kindCohort: "/v1/cohort"}

// call is one generated request. id names the response content: equal
// ids must be answered with equal bytes.
type call struct {
	kind kind
	id   int64 // the study seed, the sweep start, or the cohort seed
	body []byte
}

// key is the call's identity in the byte-check ledger.
func (c call) key() string { return fmt.Sprintf("%s %s", kindPath[c.kind], c.body) }

// plan is one workload's generated traffic: the call at every index,
// the load shape, and the keys a run prepares before timing.
type plan struct {
	clients int     // closed-loop clients, or open-loop senders
	rate    float64 // open-loop arrivals per second; 0 means closed loop
	at      func(i int) call
	warm    []call   // computed before the timed window (hit)
	persist []call   // persisted by a prep daemon before the run (tiered)
	flags   []string // extra pbld flags for the measured daemon
	setup   func(j int) call
}

// splitmix64 is the SplitMix64 finalizer: a per-index draw that does
// not depend on how many draws came before it.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to [0, 1).
func unit(u uint64) float64 { return float64(u>>11) * 0x1p-53 }

func runCall(seed int64) call {
	return call{kindRun, seed, []byte(fmt.Sprintf(`{"seed":%d}`, seed))}
}

// zipfCDF is the cumulative distribution of Zipf(s) over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// newPlan builds workload name's traffic from the benchmark seed. The
// seed picks every key; the daemon only ever sees the generated calls.
func newPlan(name string, seed int64, sz Sizes) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	// Study seeds live far from the paper's 20180893 and the sweep's
	// default start, and each workload gets its own range.
	base := 1_000_000_000 + rng.Int63n(1_000_000_000)
	mix := uint64(rng.Int63())
	draw := func(i int) uint64 { return splitmix64(mix ^ uint64(i)) }
	p := &plan{clients: 2,
		// Every daemon start's first computed request uses a seed no
		// workload key uses, so it computes even on a warmed store.
		setup: func(j int) call { return runCall(base - 1 - int64(j)) },
	}
	switch name {
	case Hit:
		keys := make([]call, sz.HitKeys)
		for k := range keys {
			keys[k] = runCall(base + int64(k))
		}
		p.warm = keys
		p.at = func(i int) call { return keys[draw(i)%uint64(len(keys))] }
	case Compute:
		p.clients = 1
		p.at = func(i int) call { return runCall(base + int64(i)) }
	case Tiered:
		keys := make([]call, sz.TieredKeys)
		for r := range keys {
			keys[r] = runCall(base + int64(r))
		}
		p.persist = keys
		cdf := zipfCDF(len(keys), tieredZipf)
		fresh := base + int64(len(keys))
		p.rate = sz.TieredRate
		p.flags = []string{"-cache", fmt.Sprint(sz.TieredCache)}
		p.at = func(i int) call {
			u := unit(draw(i))
			if u < sz.TieredFresh {
				return runCall(fresh + int64(i))
			}
			u = (u - sz.TieredFresh) / (1 - sz.TieredFresh)
			return keys[min(sort.SearchFloat64s(cdf, u), len(keys)-1)]
		}
	case Sweep:
		p.clients = 1
		p.at = func(i int) call {
			start := base + int64(i)*int64(sz.SweepSeeds)
			return call{kindSweep, start, []byte(fmt.Sprintf(`{"start":%d,"seeds":%d}`, start, sz.SweepSeeds))}
		}
	case Cohort:
		p.clients = 1
		p.at = func(i int) call {
			s := base + int64(i)
			return call{kindCohort, s, []byte(fmt.Sprintf(`{"students":%d,"seed":%d}`, sz.CohortStudents, s))}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
	}
	return p, nil
}

package bench

import (
	"container/list"
	"fmt"
	"sort"

	"pblparallel/internal/serve"
)

// tierMix is the share of requests each of the daemon's tiers answered:
// the memory tier, the disk tier, or a computation.
type tierMix struct{ Mem, Disk, Miss float64 }

func (m tierMix) String() string {
	return fmt.Sprintf("memory %.3f, disk %.3f, computed %.3f", m.Mem, m.Disk, m.Miss)
}

// tieredTarget is the tier mix the tiered workload is built to produce.
// The repository holds no traffic data, so tiered's parameters are
// synthetic, chosen for this mix rather than taken from a trace. A
// memory hit is faster than a disk read, which is far faster than a
// computed miss, so:
//
//   - Miss 0.25 puts p90 well inside the computed misses (it needs more
//     than 0.10), so tiered's p90 is a study computed under open-loop
//     arrivals;
//   - Mem 0.30 and Disk 0.45 put p50 well inside the disk reads (it needs
//     Mem < 0.5 < Mem+Disk), so tiered's p50 is a verified disk read, a
//     path no other workload takes.
//
// Each request is for a never-seen key with probability Miss, which
// makes the miss share exact by construction. The rest follow
// Zipf(tieredZipf) over the persisted keys, and tieredCache is the
// memory tier that tierModel finds answers Mem of all requests under
// that traffic (TestTieredParametersGiveTheTarget). At 200 req/s the
// misses ask for 50 studies a second, about a quarter of one core, so
// queueing comes from arrivals that collide, not from saturation.
var tieredTarget = tierMix{Mem: 0.30, Disk: 0.45, Miss: 0.25}

// tieredZipf is the skew of tiered's requests over the persisted keys:
// the key of rank r is asked for in proportion to 1/r^tieredZipf.
const tieredZipf = 1.0

// tieredCache is the memory tier's size on tiered, in entries.
const tieredCache = 51

// tierModel models the tiered daemon's cache: an LRU memory tier of a
// fixed number of entries over a disk tier that holds every persisted
// call and, by write-behind, every call computed since. A call is a
// memory hit when resident, else a disk hit when on disk, else a miss;
// either way it becomes the most recent memory entry.
type tierModel struct {
	capacity int
	lru      *list.List // call keys, most recent first
	mem      map[string]*list.Element
	disk     map[string]bool
}

func newTierModel(capacity int, persisted []call) *tierModel {
	m := &tierModel{capacity: capacity, lru: list.New(), mem: make(map[string]*list.Element), disk: make(map[string]bool)}
	for _, c := range persisted {
		m.disk[c.key()] = true
	}
	return m
}

// serve returns the tier that answers c and updates the tiers as the
// daemon does.
func (m *tierModel) serve(c call) serve.CacheStatus {
	k := c.key()
	if el, ok := m.mem[k]; ok {
		m.lru.MoveToFront(el)
		return serve.CacheHit
	}
	st := serve.CacheMiss
	if m.disk[k] {
		st = serve.CacheDiskHit
	}
	m.disk[k] = true
	m.mem[k] = m.lru.PushFront(k)
	if m.lru.Len() > m.capacity {
		delete(m.mem, m.lru.Remove(m.lru.Back()).(string))
	}
	return st
}

// mixOf is the share of statuses each tier answered; a coalesced or
// failed request counts in none.
func mixOf(statuses []serve.CacheStatus) tierMix {
	var m tierMix
	for _, s := range statuses {
		switch s {
		case serve.CacheHit:
			m.Mem++
		case serve.CacheDiskHit:
			m.Disk++
		case serve.CacheMiss:
			m.Miss++
		}
	}
	n := float64(len(statuses))
	return tierMix{ratio(m.Mem, n), ratio(m.Disk, n), ratio(m.Miss, n)}
}

// checkTiers replays every request the measured daemon was sent, from
// its set-up request on, through tierModel, and sets the result's
// measured tier mix of the timed windows beside the model's.
func (r *runner) checkTiers(setup call, warm *window, timed []*window) {
	var sent, measured []sample
	for _, w := range append([]*window{warm}, timed...) {
		sent = append(sent, w.samples...)
	}
	for _, w := range timed {
		measured = append(measured, w.samples...)
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i].i < sent[j].i })
	m := newTierModel(r.Sizes.TieredCache, r.plan.persist)
	m.serve(setup)
	predicted := make(map[int]serve.CacheStatus, len(sent))
	for _, s := range sent {
		predicted[s.i] = m.serve(r.plan.at(s.i))
	}
	got, want := make([]serve.CacheStatus, len(measured)), make([]serve.CacheStatus, len(measured))
	for k, s := range measured {
		got[k], want[k] = serve.CacheStatus(s.cache), predicted[s.i]
	}
	r.res.tiers, r.res.model = mixOf(got), mixOf(want)
	fmt.Fprintf(r.Log, "# tiers: measured %v; model %v; target %v\n", r.res.tiers, r.res.model, tieredTarget)
}

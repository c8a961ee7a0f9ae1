package sched

import "fmt"

// IndexPool hands out every index in [0, count) exactly once to a
// fixed set of participants, with work stealing. Each participant
// owns one cache-line-padded word packing an unclaimed half-open
// range as lo<<32|hi. Owners claim up to grain indices from the low
// end of their own range with a CAS; a participant whose range is
// empty steals the high half of a victim's range (rounded to a grain
// multiple) and installs the remainder as its new range.
//
// All block boundaries stay grain-aligned (the global tail block may
// be short): ranges only fragment on grain multiples and never merge,
// so the set of claim start positions is exactly {0, grain, 2·grain,
// …} no matter how the stealing interleaves. Callers that key
// per-chunk decisions (fault draws, traces) by start position
// therefore stay deterministic under stealing.
//
// Next(self) must not be called concurrently with the same self;
// different participants proceed fully in parallel.
type IndexPool struct {
	count  int
	grain  int
	shares []paddedWord
	steals PaddedInt64
}

type paddedWord struct {
	PaddedUint64
}

func pack(lo, hi int) uint64     { return uint64(lo)<<32 | uint64(hi) }
func unpack(w uint64) (int, int) { return int(w >> 32), int(w & 0xffffffff) }

// MaxIndexCount is the most indices an IndexPool, so one region, holds.
const MaxIndexCount = 1<<31 - 1

// NewIndexPool partitions [0, count) into parts contiguous
// grain-aligned shares. count must be at most MaxIndexCount; grain and
// parts are clamped to at least 1, and grain to at most count, so the
// chunk arithmetic cannot overflow.
func NewIndexPool(count, parts, grain int) *IndexPool {
	if count < 0 || count > MaxIndexCount {
		panic(fmt.Sprintf("sched: index pool count %d out of range", count))
	}
	grain = min(max(grain, 1), max(count, 1))
	if parts < 1 {
		parts = 1
	}
	p := &IndexPool{count: count, grain: grain, shares: make([]paddedWord, parts)}
	// Split in whole grain-sized chunks so every share boundary is
	// grain-aligned; the remainder chunks go to the low participants.
	chunks := (count + grain - 1) / grain
	per, extra := chunks/parts, chunks%parts
	lo := 0
	for i := range p.shares {
		n := per
		if i < extra {
			n++
		}
		hi := lo + n*grain
		if hi > count {
			hi = count
		}
		p.shares[i].Store(pack(lo, hi))
		lo = hi
	}
	return p
}

// Next claims the next run of at most grain indices for participant
// self, stealing from other participants when self's own range is
// empty. It returns n == 0 only when every index in the pool has been
// claimed or drained.
func (p *IndexPool) Next(self int) (start, n int) {
	own := &p.shares[self]
	for {
		lo, hi := unpack(own.Load())
		if lo < hi {
			k := p.grain
			if hi-lo < k {
				k = hi - lo
			}
			if own.CompareAndSwap(pack(lo, hi), pack(lo+k, hi)) {
				return lo, k
			}
			continue // a thief moved our range; retake the snapshot
		}
		if !p.stealInto(self) {
			return 0, 0
		}
	}
}

// stealInto moves work from some victim into self's (empty) share.
// Victims are scanned in a fixed rotation starting after self so two
// starving participants do not dogpile the same victim.
func (p *IndexPool) stealInto(self int) bool {
	parts := len(p.shares)
	for off := 1; off <= parts; off++ {
		v := &p.shares[(self+off)%parts]
		for {
			lo, hi := unpack(v.Load())
			if lo >= hi {
				break
			}
			k := hi - p.splitPoint(lo, hi)
			if !v.CompareAndSwap(pack(lo, hi), pack(lo, hi-k)) {
				continue // contended; re-read the victim
			}
			// Install the stolen block [hi-k, hi). The share is empty
			// and thieves never write an empty share, so a plain store
			// cannot lose a concurrent update.
			p.shares[self].Store(pack(hi-k, hi))
			p.steals.Add(1)
			return true
		}
	}
	return false
}

// splitPoint picks where to cut the victim's range [lo, hi): the
// thief takes the upper half in whole chunks, measured on absolute
// grain boundaries so the cut never lands mid-chunk even when hi is
// the unaligned global tail. A single-chunk range splits at lo — the
// thief takes everything.
func (p *IndexPool) splitPoint(lo, hi int) int {
	cStart := lo / p.grain
	cEnd := (hi + p.grain - 1) / p.grain
	return (cStart + (cEnd-cStart)/2) * p.grain
}

// Drain empties every share without executing it and returns how many
// indices were removed. Concurrent Next calls may keep claiming while
// the drain sweeps; each index is either claimed once or drained
// once, never both.
func (p *IndexPool) Drain() int {
	removed := 0
	for i := range p.shares {
		for {
			w := p.shares[i].Load()
			lo, hi := unpack(w)
			if lo >= hi {
				break
			}
			if p.shares[i].CompareAndSwap(w, pack(hi, hi)) {
				removed += hi - lo
				break
			}
		}
	}
	return removed
}

// Steals reports how many successful steals the pool has served.
func (p *IndexPool) Steals() int64 { return p.steals.Load() }

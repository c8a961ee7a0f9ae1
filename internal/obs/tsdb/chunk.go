// Package tsdb is the embedded metrics time-series store: each
// SampleOnce, driven by the daemon's obs.Clock on a fixed interval,
// walks every family the obs registry can gather — counters, gauges,
// histogram sums/counts/buckets — and appends each value to a
// per-series Gorilla-style compressed chunk (delta-of-delta
// timestamps, XOR values), with bounded retention. GET /debug/tsdb
// serves range queries with rate()/increase()/quantile-over-time
// evaluation; the rule engine (internal/obs/slo) reads its error
// budgets and runtime checks from the same store; the flight recorder
// embeds the relevant window in every postmortem bundle.
//
// The store obeys the repo's observability contract: sampling never
// changes what the system computes (it only reads the same atomics
// /metrics reads), and the per-sample append path allocates nothing in
// steady state.
package tsdb

import (
	"fmt"
	"math"
	"math/bits"
)

// Sample is one observation: milliseconds since the Unix epoch and the
// value at that instant. Milliseconds keep delta-of-delta small at
// second-scale sampling cadences while still resolving the sub-second
// intervals the chaos sweep uses.
type Sample struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Chunk is one append-only compressed run of samples. Timestamps are
// delta-of-delta encoded in variable-width tiers (a regular sampling
// cadence costs one bit per sample); values are XOR-encoded against
// their predecessor (an unchanged gauge costs one bit). Not safe for
// concurrent use — the owning series serializes access.
type Chunk struct {
	b      bstream
	n      uint32
	t0     int64
	tLast  int64
	tDelta int64
	vLast  float64
	// XOR window state; leading==leadingUnset marks "no window yet".
	leading  uint8
	trailing uint8
}

// leadingUnset flags that no XOR control window has been written; the
// value is unreachable as a real leading-zero count (capped at 31).
const leadingUnset = 0xff

// NewChunk returns an empty chunk whose bitstream has room for about
// capBytes before the first growth allocation.
func NewChunk(capBytes int) *Chunk {
	if capBytes < 16 {
		capBytes = 16
	}
	c := &Chunk{b: bstream{stream: make([]byte, 0, capBytes)}}
	c.leading = leadingUnset
	return c
}

// Reset empties the chunk for reuse, keeping the bitstream buffer —
// the steady-state append path allocates nothing.
func (c *Chunk) Reset() {
	c.b.reset()
	c.n = 0
	c.t0, c.tLast, c.tDelta, c.vLast = 0, 0, 0, 0
	c.leading, c.trailing = leadingUnset, 0
}

// Len reports the number of samples appended.
func (c *Chunk) Len() int { return int(c.n) }

// MinT and MaxT bound the chunk's time range (0,0 when empty).
func (c *Chunk) MinT() int64 { return c.t0 }
func (c *Chunk) MaxT() int64 { return c.tLast }

// Append adds one sample. Timestamps are expected non-decreasing per
// series (the sampler's clock); the encoding itself handles arbitrary
// deltas.
func (c *Chunk) Append(t int64, v float64) {
	switch c.n {
	case 0:
		c.b.writeBits(uint64(t), 64)
		c.b.writeBits(math.Float64bits(v), 64)
		c.t0 = t
	case 1:
		delta := t - c.tLast
		writeVarbitInt(&c.b, delta)
		c.tDelta = delta
		c.writeXOR(v)
	default:
		delta := t - c.tLast
		writeVarbitInt(&c.b, delta-c.tDelta)
		c.tDelta = delta
		c.writeXOR(v)
	}
	c.tLast = t
	c.vLast = v
	c.n++
}

// writeXOR encodes v against the previous value, Gorilla-style: an
// identical value is one '0' bit; otherwise the XOR's meaningful bits
// are written, reusing the previous leading/trailing window when it
// still fits ('10' control) or opening a new one ('11' + 5-bit leading
// + 6-bit significant-bit count, where 64 wraps to 0).
func (c *Chunk) writeXOR(v float64) {
	d := math.Float64bits(v) ^ math.Float64bits(c.vLast)
	if d == 0 {
		c.b.writeBit(0)
		return
	}
	c.b.writeBit(1)
	leading := uint8(bits.LeadingZeros64(d))
	trailing := uint8(bits.TrailingZeros64(d))
	if leading > 31 {
		leading = 31 // the control field is 5 bits
	}
	if c.leading != leadingUnset && leading >= c.leading && trailing >= c.trailing {
		c.b.writeBit(0)
		c.b.writeBits(d>>c.trailing, int(64-c.leading-c.trailing))
		return
	}
	c.leading, c.trailing = leading, trailing
	sig := 64 - leading - trailing
	c.b.writeBit(1)
	c.b.writeBits(uint64(leading), 5)
	c.b.writeBits(uint64(sig), 6) // sig==64 wraps to 0; the reader maps 0 back
	c.b.writeBits(d>>trailing, int(sig))
}

// bitRange reports whether x fits the nbits two's-complement window
// the varbit tiers use (asymmetric by one, matching the decoder).
func bitRange(x int64, nbits uint8) bool {
	return -((1<<(nbits-1))-1) <= x && x <= 1<<(nbits-1)
}

// writeVarbitInt encodes a signed delta-of-delta in Prometheus' tiers:
// '0' for zero, then 14/17/20-bit windows behind 10/110/1110 prefixes,
// and a full 64-bit fallback behind 1111.
func writeVarbitInt(b *bstream, x int64) {
	switch {
	case x == 0:
		b.writeBit(0)
	case bitRange(x, 14):
		b.writeBits(0b10, 2)
		b.writeBits(uint64(x)&((1<<14)-1), 14)
	case bitRange(x, 17):
		b.writeBits(0b110, 3)
		b.writeBits(uint64(x)&((1<<17)-1), 17)
	case bitRange(x, 20):
		b.writeBits(0b1110, 4)
		b.writeBits(uint64(x)&((1<<20)-1), 20)
	default:
		b.writeBits(0b1111, 4)
		b.writeBits(uint64(x), 64)
	}
}

// readVarbitInt reverses writeVarbitInt.
func readVarbitInt(r *breader) (int64, error) {
	var ones int
	for ones < 4 {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			break
		}
		ones++
	}
	var sz uint8
	switch ones {
	case 0:
		return 0, nil
	case 1:
		sz = 14
	case 2:
		sz = 17
	case 3:
		sz = 20
	case 4:
		v, err := r.readBits(64)
		return int64(v), err
	}
	v, err := r.readBits(int(sz))
	if err != nil {
		return 0, err
	}
	x := int64(v)
	if x > 1<<(sz-1) {
		x -= 1 << sz
	}
	return x, nil
}

// Iter walks a chunk's samples in append order. Construct with
// Chunk.Iter; Next/At/Err follow the usual iterator shape.
type Iter struct {
	r        breader
	total    uint32
	read     uint32
	t        int64
	v        float64
	tDelta   int64
	leading  uint8
	trailing uint8
	err      error
}

// Iter returns an iterator over the chunk's current contents. The
// iterator reads the chunk's buffer directly; do not append while
// iterating (the owning series copies under its lock).
func (c *Chunk) Iter() *Iter {
	return &Iter{r: breader{stream: c.b.stream}, total: c.n, leading: leadingUnset}
}

// Next advances to the next sample; false at the end or on a decode
// error (see Err).
func (it *Iter) Next() bool {
	if it.err != nil || it.read >= it.total {
		return false
	}
	switch it.read {
	case 0:
		tb, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		vb, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		it.t, it.v = int64(tb), math.Float64frombits(vb)
	case 1:
		d, err := readVarbitInt(&it.r)
		if err != nil {
			it.err = err
			return false
		}
		it.tDelta = d
		it.t += d
		if !it.nextValue() {
			return false
		}
	default:
		dod, err := readVarbitInt(&it.r)
		if err != nil {
			it.err = err
			return false
		}
		it.tDelta += dod
		it.t += it.tDelta
		if !it.nextValue() {
			return false
		}
	}
	it.read++
	return true
}

// nextValue decodes one XOR-encoded value into it.v.
func (it *Iter) nextValue() bool {
	bit, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if bit == 0 {
		return true // value unchanged
	}
	ctrl, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if ctrl == 1 {
		lead, err := it.r.readBits(5)
		if err != nil {
			it.err = err
			return false
		}
		sig, err := it.r.readBits(6)
		if err != nil {
			it.err = err
			return false
		}
		if sig == 0 {
			sig = 64
		}
		if lead+sig > 64 {
			// Unreachable from the encoder; reachable only from corrupted
			// bytes — reject instead of shifting by a negative amount.
			it.err = fmt.Errorf("tsdb: xor window overflow (leading %d + significant %d > 64)", lead, sig)
			return false
		}
		it.leading = uint8(lead)
		it.trailing = uint8(64 - lead - sig)
	} else if it.leading == leadingUnset {
		it.err = fmt.Errorf("tsdb: xor reuse control before any window was set")
		return false
	}
	sig := 64 - it.leading - it.trailing
	d, err := it.r.readBits(int(sig))
	if err != nil {
		it.err = err
		return false
	}
	it.v = math.Float64frombits(math.Float64bits(it.v) ^ (d << it.trailing))
	return true
}

// At returns the current sample.
func (it *Iter) At() Sample { return Sample{T: it.t, V: it.v} }

// Err reports the first decode error, nil on clean exhaustion.
func (it *Iter) Err() error { return it.err }

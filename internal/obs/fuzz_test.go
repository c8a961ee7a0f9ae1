package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzHistQuantile checks the bucket quantile estimate of a histogram
// against its contract for arbitrary observation sets and quantile
// requests: for any q, NaN and values outside 0..1 included, the
// estimate stays within [0, 16 s], the highest finite bound; folded
// into 0..1, it is monotone in q; and an empty histogram reads 0.
func FuzzHistQuantile(f *testing.F) {
	f.Add([]byte{100, 0, 0, 0, 200, 0, 0, 0}, 0.5, 0.95)
	f.Add([]byte{1, 0, 0, 0}, 0.01, 0.99)
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, 1.0, 1.0)
	f.Add([]byte{100, 0, 0, 0}, math.NaN(), 1.5)
	f.Add([]byte{100, 0, 0, 0}, -0.5, math.Inf(1))
	top := histBounds[histBuckets-2]
	f.Fuzz(func(t *testing.T, data []byte, qa, qb float64) {
		h := new(Hist)
		for i := 0; i+4 <= len(data); i += 4 {
			h.Observe(float64(binary.LittleEndian.Uint32(data[i:])) * 1e-6) // µs → s
		}
		bs := h.Point().Buckets
		norm := func(q float64) float64 {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return 0.5
			}
			q = math.Mod(math.Abs(q), 1)
			if q == 0 {
				return 1
			}
			return q
		}
		for _, q := range []float64{qa, qb} {
			if got := BucketQuantile(q, bs); !(got >= 0 && got <= top) {
				t.Fatalf("BucketQuantile(%v) = %v outside [0, %v]", q, got, top)
			}
		}
		lo, hi := norm(qa), norm(qb)
		if lo > hi {
			lo, hi = hi, lo
		}
		if h.Count() == 0 {
			if got := BucketQuantile(lo, bs); got != 0 {
				t.Fatalf("empty histogram: BucketQuantile(%v) = %v, want 0", lo, got)
			}
			return
		}
		prev := 0.0
		for _, q := range []float64{0, lo, hi, 1} {
			got := BucketQuantile(q, bs)
			if !(got >= 0 && got <= top) {
				t.Fatalf("BucketQuantile(%v) = %v outside [0, %v]", q, got, top)
			}
			if got < prev {
				t.Fatalf("BucketQuantile not monotone: q=%v reads %v, below %v", q, got, prev)
			}
			prev = got
		}
	})
}

// FuzzSpanArgs checks that the compact, interned record is lossless:
// arbitrary cat, name and arg keys and values read back from Records
// exactly as attached, arg slots run out where the span API says, and
// Export stays valid JSON. data is a sequence of ops, each an op byte
// followed by a length-prefixed key and value.
func FuzzSpanArgs(f *testing.F) {
	f.Add("serve", "request", []byte("\x01\x05route\x07/v1/run\x01\x06method\x03GET\x00\x04code\x02\xc8\x00"))
	f.Add("", "", []byte("\x02\x03key\x04\xde\xc0\x0b\x0a\x03\x0clinked_trace\x10abcdefghijklmnop"))
	f.Add("c", "s", []byte("\x00\x01k\x08\xff\xff\xff\xff\xff\xff\xff\xff\x01\x01k\x00"))
	// Four ints leave one slot: the two-slot Link is dropped, the Str fits.
	f.Add("serve", "full", []byte("\x00\x01a\x01\x01\x00\x01b\x01\x02\x00\x01c\x01\x03\x00\x01d\x01\x04"+
		"\x03\x0clinked_trace\x10abcdefghijklmnop\x01\x01e\x04last"))
	f.Fuzz(func(t *testing.T, cat, name string, data []byte) {
		next := func() []byte {
			if len(data) == 0 {
				return nil
			}
			n := min(int(data[0]), len(data)-1)
			b := data[1 : 1+n]
			data = data[1+n:]
			return b
		}
		fixed := func(b []byte, n int) []byte { // b zero-padded or cut to n bytes
			out := make([]byte, n)
			copy(out, b)
			return out
		}
		tr := NewTracer(1)
		sp := tr.Span(PIDCore, 1, cat, name)
		want := map[string]any{}
		used := 0
		for len(data) > 0 {
			op := data[0] % 4
			data = data[1:]
			key, val := string(next()), next()
			slots := 1
			var v any
			switch op {
			case 0:
				n := int64(binary.LittleEndian.Uint64(fixed(val, 8)))
				sp, v = sp.Int(key, n), n
			case 1:
				sp, v = sp.Str(key, string(val)), string(val)
			case 2:
				n := binary.LittleEndian.Uint32(fixed(val, 4))
				sp = sp.Hex32(key, n)
				v = fmt.Sprintf("%08x", n)
			case 3:
				var id TraceID
				copy(id[:], fixed(val, 16))
				sp, v, slots = sp.Link(key, id), id.String(), 2
			}
			if used+slots <= maxArgs {
				used += slots
				want[key] = v
			}
		}
		sp.End()
		recs := tr.Records()
		if len(recs) != 1 {
			t.Fatalf("recorded %d records, want 1", len(recs))
		}
		r := recs[0]
		if r.Cat != cat || r.Name != name {
			t.Fatalf("cat/name = %q/%q, want %q/%q", r.Cat, r.Name, cat, name)
		}
		if len(r.Args) != len(want) || len(want) > 0 && !reflect.DeepEqual(r.Args, want) {
			t.Fatalf("args = %#v, want %#v", r.Args, want)
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("export is not valid JSON: %s", buf.Bytes())
		}
	})
}

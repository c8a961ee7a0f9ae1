package tsdb

import (
	"math"
	"math/rand"
	"testing"
)

func sampleEq(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

func TestChunkRoundTrip(t *testing.T) {
	cases := map[string][]Sample{
		"empty":  {},
		"single": {{T: 1700000000000, V: 42.5}},
		"regular cadence, counter": {
			{T: 1000, V: 0}, {T: 6000, V: 3}, {T: 11000, V: 9}, {T: 16000, V: 9}, {T: 21000, V: 20},
		},
		"jittered cadence, gauge": {
			{T: 1000, V: 1.5}, {T: 6003, V: 1.5}, {T: 10998, V: -7.25}, {T: 16010, V: 0}, {T: 21000, V: 1e18},
		},
		"wild deltas": {
			{T: -50, V: math.Pi}, {T: 0, V: math.Pi}, {T: 1 << 40, V: -math.Pi}, {T: 1<<40 + 1, V: math.MaxFloat64},
		},
		"special floats": {
			{T: 1, V: math.Inf(1)}, {T: 2, V: math.Inf(-1)}, {T: 3, V: 0}, {T: 4, V: math.Copysign(0, -1)},
		},
	}
	for name, in := range cases {
		c := NewChunk(0)
		for _, s := range in {
			c.Append(s.T, s.V)
		}
		got, err := c.Samples()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !sampleEq(got, in) {
			t.Fatalf("%s: round trip mismatch\n got %v\nwant %v", name, got, in)
		}
		if c.Len() != len(in) {
			t.Fatalf("%s: Len=%d want %d", name, c.Len(), len(in))
		}
	}
}

func TestChunkRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(500)
		in := make([]Sample, 0, n)
		ts := int64(rng.Intn(1 << 30))
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(10000)) + 1
			in = append(in, Sample{T: ts, V: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))})
		}
		c := NewChunk(0)
		for _, s := range in {
			c.Append(s.T, s.V)
		}
		got, err := c.Samples()
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !sampleEq(got, in) {
			t.Fatalf("trial %d: round trip mismatch (%d samples)", trial, n)
		}
	}
}

func TestChunkCompression(t *testing.T) {
	// A regular cadence with a slowly moving counter must compress far
	// below the raw 16 B/sample — the property that makes an hour of
	// retention affordable in-process.
	c := NewChunk(0)
	for i := 0; i < 240; i++ {
		c.Append(int64(i)*5000, float64(i*7))
	}
	if perSample := float64(c.Bytes()) / 240; perSample > 4 {
		t.Fatalf("regular run compressed to %.2f B/sample, want <= 4", perSample)
	}
}

func TestChunkResetReuse(t *testing.T) {
	c := NewChunk(1024)
	for round := 0; round < 3; round++ {
		c.Reset()
		for i := 0; i < 100; i++ {
			c.Append(int64(round*1000+i*10), float64(i))
		}
		got, err := c.Samples()
		if err != nil || len(got) != 100 {
			t.Fatalf("round %d: got %d samples, err %v", round, len(got), err)
		}
	}
}

package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// encodeTest returns the on-disk image of (k, body).
func encodeTest(t testing.TB, k Key, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeEntry(k, body, &buf); err != nil {
		t.Fatalf("encodeEntry: %v", err)
	}
	return buf.Bytes()
}

// rotLength overwrites the header's payload length, leaving the key
// and the stream intact.
func rotLength(raw []byte, ulen uint64) []byte {
	out := append([]byte(nil), raw...)
	binary.BigEndian.PutUint64(out[37:45], ulen)
	return out
}

// TestRottedLengthAllocatesNothing: a small entry whose length field
// rotted to 2 GiB is rejected before the body buffer is allocated.
func TestRottedLengthAllocatesNothing(t *testing.T) {
	k := KeyOf([]byte("rotted"))
	raw := rotLength(encodeTest(t, k, []byte(`{"seed": 7, "students": 40}`)), 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeEntry(k, raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte entry claiming 2 GiB: err = %v, want ErrCorrupt", len(raw), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("%d-byte entry claiming 2 GiB allocated %d bytes before failing", len(raw), alloc)
	}
}

// FuzzStoreEntryDecode mutates a valid entry image arbitrarily — the
// bytes a damaged cache directory hands the daemon. decodeEntry must
// never panic, must classify every rejection as ErrCorrupt, and any
// image it accepts must decode to the original body.
func FuzzStoreEntryDecode(f *testing.F) {
	k := KeyOf([]byte("fuzz"))
	body := bytes.Repeat([]byte(`{"cohort": 40, "effect": 0.83} `), 16)
	raw := encodeTest(f, k, body)
	f.Add(raw)
	for _, cut := range []int{0, 4, headerSize - 1, headerSize, headerSize + 1, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	for _, at := range []int{0, 4, 5, 40, 46, 60, headerSize, len(raw) / 2, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Add(rotLength(raw, 1<<31))
	f.Add(rotLength(raw, uint64(len(body)+1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeEntry(k, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("accepted image decoded to %d bytes that are not the original body", len(got))
		}
	})
}

package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// On-disk entry layout: a fixed header followed by the
// deflate-compressed payload. Every field the reader needs to verify
// the payload travels with the file, so an entry is self-contained —
// a store directory can be rebuilt from nothing but its files.
//
//	offset  size  field
//	0       4     magic "PBS1"
//	4       1     format version (1)
//	5       32    content-address key (SHA-256 of the request)
//	37      8     uncompressed payload length, big endian
//	45      4     CRC32 (IEEE) of the uncompressed payload, big endian
//	49      32    SHA-256 of the uncompressed payload
//	81      —     deflate stream
//
// The payload is verified through two independent checks (CRC32 and
// SHA-256) plus the exact-length pin; the key field additionally ties
// the file to its content address, so a renamed or cross-linked file
// can never answer for the wrong request. Any mismatch — including a
// torn write truncated at an arbitrary byte — classifies the entry as
// corrupt, and corrupt entries are healed by deletion: the caller
// recomputes, which determinism guarantees reproduces the original
// bytes exactly.
const (
	magic      = "PBS1"
	version    = 1
	headerSize = 4 + 1 + sha256.Size + 8 + 4 + sha256.Size

	// maxPayload bounds the decoded length any header may claim.
	maxPayload = 1 << 31

	// maxInflate is deflate's largest expansion: a 258-byte match coded
	// in two bits. A header claiming more than this many bytes per
	// stream byte names a length the stream cannot hold, so a rotted
	// length field is rejected before the body buffer is allocated.
	maxInflate = 1032
)

// ErrCorrupt classifies an entry that failed verification — bad magic,
// version, key, length, CRC32, SHA-256, or an undecodable deflate
// stream. Callers heal it by deleting the file and recomputing.
var ErrCorrupt = errors.New("store: entry failed verification")

// Key is a content address in the persistent tier: the same SHA-256
// the in-memory cache uses, carried with its precomputed hex form
// (the file name).
type Key struct {
	Sum [sha256.Size]byte
	Hex string
}

// NewKey builds a Key from a raw digest.
func NewKey(sum [sha256.Size]byte) Key {
	return Key{Sum: sum, Hex: hex.EncodeToString(sum[:])}
}

// KeyOf hashes a canonical request representation, mirroring the
// in-memory cache's key derivation.
func KeyOf(canonical []byte) Key {
	return NewKey(sha256.Sum256(canonical))
}

// word folds the digest into the 64-bit key the fault injector draws
// on — the same fold the serving cache uses, so the two tiers' fault
// decisions key off identical material.
func (k Key) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(k.Sum[i])
	}
	return w
}

// The compression machinery is pooled: encode and decode run on every
// spill and every disk probe, and a fresh flate.Writer allocates a
// ~700 KB window. BestSpeed keeps the write path cheap — the payloads
// are indented JSON, which deflates well at any level.
var (
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

	flateWriterPool = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	}}

	flateReaderPool = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
)

// encodeEntry appends the complete on-disk form of (k, body) to dst.
func encodeEntry(k Key, body []byte, dst *bytes.Buffer) error {
	var hdr [headerSize]byte
	copy(hdr[0:4], magic)
	hdr[4] = version
	copy(hdr[5:37], k.Sum[:])
	binary.BigEndian.PutUint64(hdr[37:45], uint64(len(body)))
	binary.BigEndian.PutUint32(hdr[45:49], crc32.ChecksumIEEE(body))
	sum := sha256.Sum256(body)
	copy(hdr[49:81], sum[:])
	dst.Write(hdr[:])

	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(dst)
	if _, err := fw.Write(body); err != nil {
		flateWriterPool.Put(fw)
		return err
	}
	err := fw.Close()
	flateWriterPool.Put(fw)
	return err
}

// decodeEntry verifies and decompresses one raw file image for key k.
// Every failure mode returns ErrCorrupt (wrapped with the reason):
// the caller's response is the same — delete and recompute — whatever
// the damage was.
func decodeEntry(k Key, raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(raw), headerSize)
	}
	if string(raw[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[0:4])
	}
	if raw[4] != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, raw[4], version)
	}
	if !bytes.Equal(raw[5:37], k.Sum[:]) {
		return nil, fmt.Errorf("%w: header key does not match content address %s", ErrCorrupt, k.Hex)
	}
	ulen := binary.BigEndian.Uint64(raw[37:45])
	if ulen > maxPayload || ulen > maxInflate*uint64(len(raw)-headerSize) {
		return nil, fmt.Errorf("%w: implausible payload length %d for a %d-byte stream", ErrCorrupt, ulen, len(raw)-headerSize)
	}
	wantCRC := binary.BigEndian.Uint32(raw[45:49])
	var wantSum [sha256.Size]byte
	copy(wantSum[:], raw[49:81])

	fr := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(raw[headerSize:]), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	body := make([]byte, ulen)
	if _, err := io.ReadFull(fr, body); err != nil {
		return nil, fmt.Errorf("%w: deflate stream ends early: %v", ErrCorrupt, err)
	}
	// The stream must end exactly at the advertised length, with a clean
	// terminator. Trailing data means the header and payload disagree;
	// anything but io.EOF means the stream was torn after its last
	// payload byte — the digests cannot see that (the payload itself is
	// intact), so the terminator check is what catches a truncation in
	// the stream's final bytes.
	var one [1]byte
	n, rerr := fr.Read(one[:])
	if n != 0 {
		return nil, fmt.Errorf("%w: deflate stream longer than advertised length %d", ErrCorrupt, ulen)
	}
	if rerr != io.EOF {
		return nil, fmt.Errorf("%w: deflate stream not cleanly terminated: %v", ErrCorrupt, rerr)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: CRC32 mismatch", ErrCorrupt)
	}
	if sha256.Sum256(body) != wantSum {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorrupt)
	}
	return body, nil
}

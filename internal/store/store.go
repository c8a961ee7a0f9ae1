// Package store is the persistent second tier of the content-addressed
// result cache: entries keyed by the same SHA-256 addresses the serving
// cache uses, written as deflate-compressed files with an integrity
// header, verified on every read, and bounded by total compressed size
// with least-recently-used eviction.
//
// The design contract mirrors the in-memory cache's corruption-heal
// path from the service layer: a read that fails verification — bit
// rot, a torn write from a crash mid-rename, an injected corruption —
// is never served. The store deletes the damaged file, counts the heal,
// and reports a miss; the caller recomputes, and determinism guarantees
// the recomputed bytes equal the originals. Restarting a daemon on the
// same -cache-dir therefore serves byte-identical responses from disk
// without recomputing its warm set.
//
// Writes are write-behind: Put enqueues onto a single writer goroutine
// (temp file + atomic rename, so a crash can tear at most an invisible
// temp file), and Close drains the queue before returning — the
// SIGTERM graceful drain ends with every accepted entry durable.
//
// Fault sites store.read, store.write, and store.corrupt thread the
// deterministic injection subsystem through the tier: read failures
// degrade to misses, write failures drop spills, and corruption is
// healed — all without ever changing response bytes, which is what
// `pblstudy chaos -serve` asserts across a kill-and-restart.
package store

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
)

// DefaultMaxBytes bounds the disk tier when Options.MaxBytes is zero:
// 256 MiB of compressed entries.
const DefaultMaxBytes = 256 << 20

// entrySuffix names entry files; temp files use tmpSuffix until their
// atomic rename. Anything else in the directory is ignored.
const (
	entrySuffix = ".pbe"
	tmpSuffix   = ".tmp"
)

// Options tunes an opened store.
type Options struct {
	// MaxBytes bounds the total compressed size; <= 0 selects
	// DefaultMaxBytes. At least one entry is always retained, so a
	// single oversized entry cannot wedge the tier empty.
	MaxBytes int64
	// Injector arms the store.read / store.write / store.corrupt fault
	// sites. Nil disables injection.
	Injector *fault.Injector
	// Registry receives the store_* metric families, which are also the
	// ledger Stats reads; nil selects the process registry
	// (obs.Metrics()). Stores sharing a registry share a ledger.
	Registry *obs.Registry
}

// StatsSnapshot is a point-in-time store ledger.
type StatsSnapshot struct {
	Entries           int   `json:"entries"`
	Bytes             int64 `json:"bytes"`
	DiskHits          int64 `json:"disk_hits"`
	DiskMisses        int64 `json:"disk_misses"`
	Puts              int64 `json:"puts"`
	CorruptionsHealed int64 `json:"corruptions_healed"`
	Evicted           int64 `json:"evicted"`
	ReadErrors        int64 `json:"read_errors"`
	WriteErrors       int64 `json:"write_errors"`
}

// dent is one indexed entry: its hex key and compressed file size.
type dent struct {
	hex  string
	size int64
}

// putReq is one queued write; a nil body with a non-nil done channel
// is a flush barrier.
type putReq struct {
	key  Key
	body []byte
	done chan struct{}
}

// Store is the persistent tier. All methods are safe for concurrent
// use. Construct with Open; Close drains pending writes.
type Store struct {
	dir string
	max int64
	inj *fault.Injector

	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
	bytes   int64
	readSeq map[string]uint64 // per-key read count, fault-decision keying (armed only)

	closeMu sync.RWMutex
	closed  bool
	putc    chan putReq
	wg      sync.WaitGroup

	hits, misses, puts, healed, evicted, readErrs, writeErrs *obs.Counter
}

// Open builds the store over dir, creating it as needed and indexing
// every existing entry (newest file first in LRU order). Leftover temp
// files from a previous crash are removed; malformed names are ignored
// — corrupt contents are discovered, and healed, lazily on read.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Registry == nil {
		o.Registry = obs.Metrics()
	}
	s := &Store{
		dir:     dir,
		max:     o.MaxBytes,
		inj:     o.Injector,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		putc:    make(chan putReq, 128),
	}
	if s.inj != nil {
		s.readSeq = make(map[string]uint64)
	}
	reg := o.Registry
	s.hits = reg.Counter("store_disk_hits_total", "Entries served (verified) from the persistent tier.")
	s.misses = reg.Counter("store_disk_misses_total", "Persistent-tier probes that found no entry.")
	s.puts = reg.Counter("store_disk_puts_total", "Entries written to the persistent tier.")
	s.healed = reg.Counter("store_corruptions_healed_total", "Persistent entries that failed verification and were healed by delete + recompute.")
	s.evicted = reg.Counter("store_evictions_total", "Persistent entries evicted by the size bound.")
	s.readErrs = reg.Counter("store_read_errors_total", "Persistent-tier reads that failed (degraded to misses).")
	s.writeErrs = reg.Counter("store_write_errors_total", "Persistent-tier writes that failed (entry not persisted).")
	reg.RegisterGatherer(obs.GathererFunc(s.gather))

	if err := s.scan(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// scan rebuilds the index from the directory: two-level fan-out
// (first two hex digits), entries ordered LRU by file mtime.
func (s *Store) scan() error {
	type scanned struct {
		hex   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sd := range subdirs {
		if !sd.IsDir() || len(sd.Name()) != 2 || !isHex(sd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasSuffix(name, tmpSuffix) {
				// A crash mid-write leaves an invisible temp file; the
				// rename never happened, so it holds nothing the index
				// ever promised.
				os.Remove(filepath.Join(s.dir, sd.Name(), name))
				continue
			}
			hexKey, ok := strings.CutSuffix(name, entrySuffix)
			if !ok || len(hexKey) != 64 || !isHex(hexKey) || !strings.HasPrefix(hexKey, sd.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, scanned{hex: hexKey, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, e := range found {
		s.entries[e.hex] = s.ll.PushFront(&dent{hex: e.hex, size: e.size})
		s.bytes += e.size
	}
	return nil
}

// isHex reports whether every byte of v is a lowercase hex digit.
func isHex(v string) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path is the entry file for one hex key.
func (s *Store) path(hexKey string) string {
	return filepath.Join(s.dir, hexKey[:2], hexKey+entrySuffix)
}

// Get probes the tier for k, returning the verified payload. healed
// reports that an entry was found but failed verification (injected or
// real corruption) and was deleted — the caller's recompute completes
// the heal, exactly like the in-memory cache's corruption path. An
// injected read error (site store.read) degrades to a plain miss and
// leaves the entry on disk.
func (s *Store) Get(ctx context.Context, k Key) (body []byte, ok bool, healed bool) {
	s.mu.Lock()
	el, exists := s.entries[k.Hex]
	var seq uint64
	if s.readSeq != nil {
		seq = s.readSeq[k.Hex]
		s.readSeq[k.Hex] = seq + 1
	}
	if !exists {
		s.mu.Unlock()
		s.misses.Inc()
		return nil, false, false
	}
	size := el.Value.(*dent).size
	s.mu.Unlock()

	if f, hit := s.inj.Hit(fault.SiteStoreRead, fault.Mix2(k.Word(), seq)); hit && f.Kind == fault.DiskReadErr {
		// The read "fails": a miss from the caller's perspective, the
		// recompute serves the request, and the entry stays on disk for
		// the next probe — recovered by construction.
		s.readErrs.Inc()
		s.inj.MarkRecovered(1)
		return nil, false, false
	}

	raw, err := os.ReadFile(s.path(k.Hex))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Raced with an eviction: the index entry is already gone or
			// about to be; treat as a miss.
			s.misses.Inc()
			return nil, false, false
		}
		s.readErrs.Inc()
		return nil, false, false
	}
	if f, hit := s.inj.Hit(fault.SiteStoreCorrupt, fault.Mix2(k.Word(), seq)); hit && f.Kind == fault.CacheCorrupt {
		// Simulated bit rot on the file image: corrupt a copy so the
		// verification below finds the damage, exactly like the
		// in-memory cache's cache-corrupt site. The flipped byte is the
		// first of the deflate stream — damage there either breaks
		// decompression or changes the payload, so a digest always
		// catches it (the stream's final byte can be padding bits whose
		// flip decompresses identically).
		raw = append([]byte(nil), raw...)
		if len(raw) > headerSize {
			raw[headerSize] ^= 0xFF
		} else {
			raw[len(raw)-1] ^= 0xFF
		}
	}
	body, derr := decodeEntry(k, raw)
	if derr != nil {
		// Verification failed — torn write, bit rot, or injected
		// corruption. Heal by deletion; the caller recomputes and
		// determinism makes the heal exact.
		s.remove(k.Hex, size)
		os.Remove(s.path(k.Hex))
		s.healed.Inc()
		s.inj.MarkRetry()
		flightrec.Active().Event(flightrec.KindCorruptionHealed, string(fault.SiteStoreCorrupt),
			k.Word(), obs.TraceIDFromContext(ctx))
		return nil, false, true
	}

	s.mu.Lock()
	if el, still := s.entries[k.Hex]; still {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	s.hits.Inc()
	return body, true, false
}

// remove drops one index entry if it is still present.
func (s *Store) remove(hexKey string, size int64) {
	s.mu.Lock()
	if el, ok := s.entries[hexKey]; ok {
		s.ll.Remove(el)
		delete(s.entries, hexKey)
		s.bytes -= size
	}
	s.mu.Unlock()
}

// Put enqueues (k, body) for the writer goroutine — the write-behind
// half of the tier. body must not be mutated afterwards (cache bodies
// never are). A closed store drops the write silently; entries already
// present are skipped, so eviction spills of disk-sourced entries cost
// one index probe.
func (s *Store) Put(k Key, body []byte) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	s.putc <- putReq{key: k, body: body}
}

// Flush blocks until every Put accepted before it has been written.
func (s *Store) Flush() {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return
	}
	done := make(chan struct{})
	s.putc <- putReq{done: done}
	s.closeMu.RUnlock()
	<-done
}

// Close drains the write queue and stops the writer. Idempotent.
func (s *Store) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.putc)
	s.closeMu.Unlock()
	s.wg.Wait()
}

// writer is the single write-behind goroutine: it serializes file
// creation, so two spills of the same key cannot race their renames.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.putc {
		if req.done != nil {
			close(req.done)
			continue
		}
		s.doPut(req.key, req.body)
	}
}

// doPut writes one entry: encode into a pooled buffer, write a temp
// file next to its final location, atomically rename, then index and
// evict past the size bound.
func (s *Store) doPut(k Key, body []byte) {
	s.mu.Lock()
	_, exists := s.entries[k.Hex]
	s.mu.Unlock()
	if exists {
		return
	}
	if f, hit := s.inj.Hit(fault.SiteStoreWrite, k.Word()); hit && f.Kind == fault.DiskWriteErr {
		// The spill is dropped: a future miss recomputes, so nothing is
		// lost but a disk hit.
		s.writeErrs.Inc()
		s.inj.MarkRecovered(1)
		return
	}

	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	err := encodeEntry(k, body, buf)
	if err == nil {
		err = s.writeFile(k.Hex, buf.Bytes())
	}
	if err != nil {
		s.writeErrs.Inc()
		return
	}

	size := int64(buf.Len())
	var evict []string
	s.mu.Lock()
	s.entries[k.Hex] = s.ll.PushFront(&dent{hex: k.Hex, size: size})
	s.bytes += size
	// Evict past the bound, always keeping at least the entry just
	// written — mirroring the memory cache's minimum capacity of 1.
	for s.bytes > s.max && s.ll.Len() > 1 {
		old := s.ll.Remove(s.ll.Back()).(*dent)
		delete(s.entries, old.hex)
		s.bytes -= old.size
		evict = append(evict, old.hex)
	}
	s.mu.Unlock()
	for _, h := range evict {
		os.Remove(s.path(h))
		s.evicted.Inc()
	}
	s.puts.Inc()
}

// writeFile lands data at hexKey's entry path: a temp file next to it,
// written and closed, then atomically renamed into place. The temp file
// is removed on any failure, so a failed write leaves nothing behind.
func (s *Store) writeFile(hexKey string, data []byte) error {
	subdir := filepath.Join(s.dir, hexKey[:2])
	if err := os.MkdirAll(subdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(subdir, "put-*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(hexKey))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Stats snapshots this store's ledger.
func (s *Store) Stats() StatsSnapshot {
	s.mu.Lock()
	entries := s.ll.Len()
	bytes := s.bytes
	s.mu.Unlock()
	return StatsSnapshot{
		Entries:           entries,
		Bytes:             bytes,
		DiskHits:          s.hits.Value(),
		DiskMisses:        s.misses.Value(),
		Puts:              s.puts.Value(),
		CorruptionsHealed: s.healed.Value(),
		Evicted:           s.evicted.Value(),
		ReadErrors:        s.readErrs.Value(),
		WriteErrors:       s.writeErrs.Value(),
	}
}

// gather surfaces the tier's occupancy in the metrics exposition.
func (s *Store) gather() []obs.Family {
	st := s.Stats()
	gauge := func(name, help string, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: "gauge",
			Points: []obs.Point{{Value: v}}}
	}
	return []obs.Family{
		gauge("store_entries", "Entries resident in the persistent tier.", float64(st.Entries)),
		gauge("store_bytes", "Total compressed bytes resident in the persistent tier.", float64(st.Bytes)),
	}
}

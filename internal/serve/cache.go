package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
	"pblparallel/internal/obs/flightrec"
	"pblparallel/internal/store"
)

// Key is the content address of a study request: the SHA-256 of its
// canonical normalized form. Execution knobs that cannot change the
// response bytes (worker count, queue depth, deadlines) are excluded by
// construction — determinism means they never reach the hash input.
type Key struct {
	sum [sha256.Size]byte
	hex string
}

// NewKey hashes a canonical request representation. Callers build the
// canonical bytes with normalized (defaulted) parameters so that, e.g.,
// an omitted seed and the paper's seed address the same entry.
func NewKey(canonical []byte) Key {
	sum := sha256.Sum256(canonical)
	return Key{sum: sum, hex: hex.EncodeToString(sum[:])}
}

// Hex is the key's lowercase hex form, served as X-Study-Key.
func (k Key) Hex() string { return k.hex }

// DiskKey is the key's persistent-tier form: the same digest, so both
// tiers address an entry identically.
func (k Key) DiskKey() store.Key { return store.Key{Sum: k.sum, Hex: k.hex} }

// prefix is the hash's first 32 bits, the first 8 digits of Hex.
func (k Key) prefix() uint32 { return binary.BigEndian.Uint32(k.sum[:4]) }

// word folds the hash into the 64-bit key the fault injector draws on.
func (k Key) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(k.sum[i])
	}
	return w
}

// CacheStatus reports how a response was produced, served as X-Cache.
type CacheStatus string

// The cache outcomes.
const (
	// CacheHit served stored bytes.
	CacheHit CacheStatus = "hit"
	// CacheMiss computed (and stored) the response.
	CacheMiss CacheStatus = "miss"
	// CacheCoalesced waited on an identical in-flight computation —
	// singleflight: N concurrent identical requests compute once.
	CacheCoalesced CacheStatus = "coalesced"
	// CacheDiskHit served verified bytes from the persistent tier after
	// a memory miss — the read-through path, no compute executed.
	CacheDiskHit CacheStatus = "disk"
)

// entry is one cached response with its integrity digest. ck keeps the
// full content address so an eviction can spill the entry to the
// persistent tier without re-deriving it.
type entry struct {
	key  string
	ck   Key
	body []byte
	sum  [sha256.Size]byte
}

// flightCall is one in-progress computation that identical concurrent
// requests coalesce onto.
type flightCall struct {
	done chan struct{}
	body []byte
	err  error
	// trace is the leader's trace ID: followers link their own trace to
	// it, so the span tree of a coalesced request points at the trace
	// that actually holds the engine spans.
	trace obs.TraceID
}

// CacheStats is a point-in-time cache ledger.
type CacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Coalesced int64
	// Computes counts actual compute executions — the singleflight
	// assertion target: identical concurrent requests bump it once.
	Computes int64
	// CorruptRecovered counts integrity failures healed by recompute.
	CorruptRecovered int64
	Evicted          int64
	// DiskHits counts memory misses served (verified) from the
	// persistent tier without computing.
	DiskHits int64
}

// Cache is the content-addressed result cache: bounded, LRU-evicting,
// integrity-checked, with singleflight coalescing of concurrent
// identical requests. All methods are safe for concurrent use.
//
// When a persistent tier is attached (disk non-nil), the cache is
// read-through/write-behind over it: a memory miss probes the disk
// before computing, a computed response is queued for spill, and a
// memory eviction spills the evicted entry — so a restart on the same
// directory finds its warm set waiting. Singleflight coalescing covers
// both tiers: followers of an in-flight key wait whether the leader is
// reading disk or computing.
type Cache struct {
	cap  int
	inj  *fault.Injector
	disk *store.Store

	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recent
	flight  map[string]*flightCall
	hitSeq  map[string]uint64 // per-key read count, fault-decision keying (armed only)
	stats   CacheStats
}

// NewCache builds a cache bounded to capacity entries (minimum 1). inj
// arms the cache-corruption injection site; nil disables it.
func NewCache(capacity int, inj *fault.Injector) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		cap:     capacity,
		inj:     inj,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		flight:  make(map[string]*flightCall),
	}
	if inj != nil {
		c.hitSeq = make(map[string]uint64)
	}
	return c
}

// Do returns the cached response for k, coalescing onto an identical
// in-flight computation when one exists, and otherwise computing (and
// storing) it. ctx bounds only this caller's wait: a coalesced waiter
// whose deadline expires returns ctx.Err() while the leader's
// computation continues and still populates the cache. Errors are never
// cached — a failed compute leaves the key empty for the next request.
func (c *Cache) Do(ctx context.Context, k Key, compute func() ([]byte, error)) ([]byte, CacheStatus, error) {
	healing := false
	c.mu.Lock()
	if el, ok := c.entries[k.hex]; ok {
		e := el.Value.(*entry)
		if c.inj != nil {
			seq := c.hitSeq[k.hex]
			c.hitSeq[k.hex] = seq + 1
			if f, hit := c.inj.Hit(fault.SiteServeCache, fault.Mix2(k.word(), seq)); hit && f.Kind == fault.CacheCorrupt {
				// Simulated bit rot: corrupt a copy so responses already
				// handed out keep their bytes, then let the digest check
				// below find the damage.
				e.body = append([]byte(nil), e.body...)
				e.body[0] ^= 0xFF
			}
		}
		if sha256.Sum256(e.body) == e.sum {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			body := e.body
			c.mu.Unlock()
			return body, CacheHit, nil
		}
		// Integrity failure: drop the entry and recompute. Determinism
		// makes the heal exact — the recomputed bytes equal the originals.
		c.ll.Remove(el)
		delete(c.entries, k.hex)
		c.stats.CorruptRecovered++
		c.inj.MarkRetry()
		flightrec.Active().Event(flightrec.KindCorruptionHealed, "serve.cache", k.word(),
			obs.TraceIDFromContext(ctx))
		healing = true
	}
	if call, ok := c.flight[k.hex]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		// The follower's trace has no engine spans of its own — they live
		// in the leader's trace. Record the link so both the span-tree
		// endpoint and the exported trace can stitch the two together.
		if tc, ok := obs.TraceFromContext(ctx); ok && !call.trace.IsZero() {
			obs.Default().Span(obs.PIDServe, obs.LaneFor(tc.Trace), "serve", "coalesced.link").
				Trace(tc).Link("linked_trace", call.trace).Emit()
		}
		select {
		case <-call.done:
			return call.body, CacheCoalesced, call.err
		case <-ctx.Done():
			return nil, CacheCoalesced, ctx.Err()
		}
	}
	call := &flightCall{done: make(chan struct{}), trace: obs.TraceIDFromContext(ctx)}
	c.flight[k.hex] = call
	c.mu.Unlock()

	// Leader path, read-through: a memory miss probes the persistent
	// tier before paying for a compute. A disk entry that fails
	// verification is healed there (deleted) and the compute below
	// completes the heal, exactly like the in-memory corruption path.
	var (
		body   []byte
		err    error
		status = CacheMiss
	)
	if c.disk != nil {
		if b, ok, h := c.disk.Get(ctx, k.DiskKey()); ok {
			body, status = b, CacheDiskHit
		} else if h {
			healing = true
		}
	}
	if status != CacheDiskHit {
		c.mu.Lock()
		c.stats.Computes++
		c.mu.Unlock()
		body, err = compute()
	}

	var spill []*entry
	c.mu.Lock()
	delete(c.flight, k.hex)
	if err == nil {
		sum := sha256.Sum256(body)
		c.entries[k.hex] = c.ll.PushFront(&entry{key: k.hex, ck: k, body: body, sum: sum})
		for c.ll.Len() > c.cap {
			old := c.ll.Remove(c.ll.Back()).(*entry)
			delete(c.entries, old.key)
			c.stats.Evicted++
			spill = append(spill, old)
		}
		if status == CacheDiskHit {
			c.stats.DiskHits++
		} else {
			c.stats.Misses++
		}
	}
	call.body, call.err = body, err
	close(call.done)
	c.mu.Unlock()
	if c.disk != nil {
		if status == CacheMiss && err == nil {
			// Write-behind: the freshly computed entry becomes durable
			// without blocking this response on compression or IO.
			c.disk.Put(k.DiskKey(), body)
		}
		for _, old := range spill {
			// Memory evictions spill to the tier below (a no-op when the
			// entry is already resident there).
			c.disk.Put(old.ck.DiskKey(), old.body)
		}
	}
	if healing && err == nil {
		// The corruption detected above is now fully absorbed: the
		// recovered bytes are byte-identical to the originals.
		c.inj.MarkRecovered(1)
	}
	return body, status, err
}

// Stats snapshots the cache ledger.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

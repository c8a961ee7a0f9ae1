package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
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
	addr store.Key
}

// NewKey hashes a canonical request representation. Callers build the
// canonical bytes with normalized (defaulted) parameters so that, e.g.,
// an omitted seed and the paper's seed address the same entry.
func NewKey(canonical []byte) Key { return Key{addr: store.KeyOf(canonical)} }

// Hex is the key's lowercase hex form, served as X-Study-Key.
func (k Key) Hex() string { return k.addr.Hex }

// DiskKey is the persistent tier's key: the very one this key wraps,
// so both tiers address an entry identically.
func (k Key) DiskKey() store.Key { return k.addr }

// prefix is the hash's first 32 bits, the first 8 digits of Hex.
func (k Key) prefix() uint32 { return binary.BigEndian.Uint32(k.addr.Sum[:4]) }

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
	Entries int
	// Bytes is the memory tier's body bytes, held to entries × 4 KiB.
	Bytes     int64
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
// The memory tier is bounded twice: at most capacity entries, and at
// most capacity × entryBudget bytes of bodies, the newest entry always
// kept. The byte bound leaves small replies (a /v1/run is about 350 B)
// to the entry bound, but stops large ones (an 88 KB cohort) from
// holding RSS in proportion to the request rate.
//
// When a persistent tier is attached (disk non-nil), the cache is
// read-through/write-behind over it: a memory miss probes the disk
// before computing, a computed response is queued for spill, and a
// memory eviction spills the evicted entry — so a restart on the same
// directory finds its warm set waiting. Singleflight coalescing covers
// both tiers: followers of an in-flight key wait whether the leader is
// reading disk or computing.
type Cache struct {
	cap      int
	maxBytes int64
	inj      *fault.Injector
	disk     *store.Store

	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recent
	flight  map[string]*flightCall
	hitSeq  map[string]uint64 // per-key read count, fault-decision keying (armed only)
	stats   CacheStats
}

// entryBudget is the body bytes each entry of capacity adds to the
// memory tier's byte bound.
const entryBudget = 4 << 10

// NewCache builds a cache bounded to capacity entries (minimum 1). inj
// arms the cache-corruption injection site; nil disables it.
func NewCache(capacity int, inj *fault.Injector) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		cap:      capacity,
		maxBytes: int64(min(capacity, math.MaxInt/entryBudget)) * entryBudget,
		inj:      inj,
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
		flight:   make(map[string]*flightCall),
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
	if el, ok := c.entries[k.addr.Hex]; ok {
		e := el.Value.(*entry)
		if c.inj != nil {
			seq := c.hitSeq[k.addr.Hex]
			c.hitSeq[k.addr.Hex] = seq + 1
			if f, hit := c.inj.Hit(fault.SiteServeCache, fault.Mix2(k.addr.Word(), seq)); hit && f.Kind == fault.CacheCorrupt {
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
		delete(c.entries, k.addr.Hex)
		c.stats.Bytes -= int64(len(e.body))
		c.stats.CorruptRecovered++
		c.inj.MarkRetry()
		flightrec.Active().Event(flightrec.KindCorruptionHealed, "serve.cache", k.addr.Word(),
			obs.TraceIDFromContext(ctx))
		healing = true
	}
	if call, ok := c.flight[k.addr.Hex]; ok {
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
	c.flight[k.addr.Hex] = call
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
	delete(c.flight, k.addr.Hex)
	if err == nil {
		sum := sha256.Sum256(body)
		c.entries[k.addr.Hex] = c.ll.PushFront(&entry{ck: k, body: body, sum: sum})
		c.stats.Bytes += int64(len(body))
		for c.ll.Len() > c.cap || (c.ll.Len() > 1 && c.stats.Bytes > c.maxBytes) {
			old := c.ll.Remove(c.ll.Back()).(*entry)
			delete(c.entries, old.ck.Hex())
			c.stats.Bytes -= int64(len(old.body))
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

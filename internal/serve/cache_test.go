package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/store"
)

func TestKeyNormalizedCanonicalForm(t *testing.T) {
	a := NewKey([]byte("run|seed=20180893|students=124|calibrated=true"))
	b := NewKey([]byte("run|seed=20180893|students=124|calibrated=true"))
	c := NewKey([]byte("run|seed=20180894|students=124|calibrated=true"))
	if a.Hex() != b.Hex() {
		t.Fatal("identical canonical forms hash to different keys")
	}
	if a.Hex() == c.Hex() {
		t.Fatal("different canonical forms hash to the same key")
	}
	if len(a.Hex()) != 64 {
		t.Fatalf("key hex length = %d, want 64", len(a.Hex()))
	}
}

// TestKeyIsTheDiskKey pins the one content key both tiers share: the
// serving key's disk form is store.KeyOf of the same canonical bytes,
// its Hex is the digest's hex, and the fault-injection word is the
// digest's first eight bytes big-endian — the fold the chaos sweeps'
// recorded fault decisions were drawn from.
func TestKeyIsTheDiskKey(t *testing.T) {
	canonical := []byte("run|seed=7|students=124|calibrated=true")
	k := NewKey(canonical)
	if k.DiskKey() != store.KeyOf(canonical) {
		t.Fatalf("DiskKey %+v differs from store.KeyOf", k.DiskKey())
	}
	sum := sha256.Sum256(canonical)
	if k.Hex() != hex.EncodeToString(sum[:]) {
		t.Fatalf("Hex %s is not the digest's hex", k.Hex())
	}
	if w := k.DiskKey().Word(); w != binary.BigEndian.Uint64(sum[:8]) {
		t.Fatalf("Word %#x is not the digest's first 8 bytes", w)
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewCache(8, nil)
	k := NewKey([]byte("k"))
	computes := 0
	compute := func() ([]byte, error) { computes++; return []byte("body"), nil }

	body, status, err := c.Do(context.Background(), k, compute)
	if err != nil || status != CacheMiss || string(body) != "body" {
		t.Fatalf("first Do = %q, %v, %v; want body, miss, nil", body, status, err)
	}
	body, status, err = c.Do(context.Background(), k, compute)
	if err != nil || status != CacheHit || string(body) != "body" {
		t.Fatalf("second Do = %q, %v, %v; want body, hit, nil", body, status, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Computes != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheErrorsNeverCached(t *testing.T) {
	c := NewCache(8, nil)
	k := NewKey([]byte("k"))
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do(context.Background(), k, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed compute must leave the key empty: the next request
	// computes again and can succeed.
	body, status, err := c.Do(context.Background(), k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || status != CacheMiss || string(body) != "ok" {
		t.Fatalf("Do after error = %q, %v, %v; want ok, miss, nil", body, status, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, nil)
	mk := func(i int) Key { return NewKey([]byte(fmt.Sprintf("k%d", i))) }
	body := func(i int) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(fmt.Sprintf("b%d", i)), nil }
	}
	ctx := context.Background()
	c.Do(ctx, mk(0), body(0))
	c.Do(ctx, mk(1), body(1))
	c.Do(ctx, mk(0), body(0)) // refresh 0: 1 becomes LRU
	c.Do(ctx, mk(2), body(2)) // evicts 1
	if _, status, _ := c.Do(ctx, mk(0), body(0)); status != CacheHit {
		t.Fatalf("key 0 status = %v, want hit (refreshed entry must survive)", status)
	}
	if _, status, _ := c.Do(ctx, mk(1), body(1)); status != CacheMiss {
		t.Fatalf("key 1 status = %v, want miss (LRU entry must be evicted)", status)
	}
	if s := c.Stats(); s.Evicted < 1 {
		t.Fatalf("evicted = %d, want >= 1", s.Evicted)
	}
}

// TestCacheSingleflightComputesOnce is the coalescing contract: N
// concurrent identical requests execute the compute exactly once. The
// leader blocks until every follower is provably waiting, so the
// assertion cannot pass by accident of scheduling.
func TestCacheSingleflightComputesOnce(t *testing.T) {
	const followers = 7
	c := NewCache(8, nil)
	k := NewKey([]byte("k"))
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	type out struct {
		body   []byte
		status CacheStatus
		err    error
	}
	results := make(chan out, followers+1)
	go func() {
		body, status, err := c.Do(context.Background(), k, func() ([]byte, error) {
			close(leaderIn)
			<-release
			return []byte("once"), nil
		})
		results <- out{body, status, err}
	}()
	<-leaderIn
	for i := 0; i < followers; i++ {
		go func() {
			body, status, err := c.Do(context.Background(), k, func() ([]byte, error) {
				t.Error("follower executed the compute")
				return nil, nil
			})
			results <- out{body, status, err}
		}()
	}
	// Wait until every follower is registered on the in-flight call.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers coalesced", c.Stats().Coalesced, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	statuses := map[CacheStatus]int{}
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil || string(r.body) != "once" {
			t.Fatalf("result = %q, %v", r.body, r.err)
		}
		statuses[r.status]++
	}
	if statuses[CacheMiss] != 1 || statuses[CacheCoalesced] != followers {
		t.Fatalf("statuses = %v, want 1 miss + %d coalesced", statuses, followers)
	}
	if s := c.Stats(); s.Computes != 1 {
		t.Fatalf("computes = %d, want exactly 1", s.Computes)
	}
}

func TestCacheCoalescedWaiterHonorsItsDeadline(t *testing.T) {
	c := NewCache(8, nil)
	k := NewKey([]byte("k"))
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), k, func() ([]byte, error) {
		close(leaderIn)
		<-release
		return []byte("late"), nil
	})
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, status, err := c.Do(ctx, k, func() ([]byte, error) { return nil, nil })
	if status != CacheCoalesced || err != context.DeadlineExceeded {
		t.Fatalf("waiter = %v, %v; want coalesced, deadline exceeded", status, err)
	}
}

// TestCacheCorruptionHealsByRecompute arms the cache-corruption site at
// probability 1: every cached read sees flipped bytes, the integrity
// digest catches it, and the recompute returns the exact original
// bytes.
func TestCacheCorruptionHealsByRecompute(t *testing.T) {
	inj, err := fault.New(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Site: fault.SiteServeCache, Kind: fault.CacheCorrupt, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8, inj)
	k := NewKey([]byte("k"))
	want := []byte("the one true body")
	compute := func() ([]byte, error) { return append([]byte(nil), want...), nil }
	ctx := context.Background()

	if _, status, _ := c.Do(ctx, k, compute); status != CacheMiss {
		t.Fatalf("first status = %v, want miss", status)
	}
	body, status, err := c.Do(ctx, k, compute)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Fatalf("healed body = %q, want %q", body, want)
	}
	if status != CacheMiss {
		t.Fatalf("healed status = %v, want miss (recomputed)", status)
	}
	s := c.Stats()
	if s.CorruptRecovered != 1 {
		t.Fatalf("corrupt recovered = %d, want 1", s.CorruptRecovered)
	}
	st := inj.Stats()
	if st.Injected < 1 || st.Recovered < 1 {
		t.Fatalf("injector stats = %+v, want corruption injected and recovered", st)
	}
}

// TestCacheConcurrentHammer drives the cache from 8 goroutines over a
// small key space; run under -race (make race does) it is the data-race
// detector for the hit/miss/coalesce/evict paths.
func TestCacheConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		iters      = 400
		keys       = 5 // below capacity so hits dominate
	)
	c := NewCache(4, nil) // capacity below key count: eviction races too
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ki := (g + i) % keys
				want := fmt.Sprintf("body-%d", ki)
				body, _, err := c.Do(context.Background(), NewKey([]byte(fmt.Sprintf("k%d", ki))), func() ([]byte, error) {
					return []byte(want), nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if string(body) != want {
					t.Errorf("key %d returned %q, want %q", ki, body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses+s.Coalesced != goroutines*iters {
		t.Fatalf("ledger %+v does not add up to %d requests", s, goroutines*iters)
	}
}

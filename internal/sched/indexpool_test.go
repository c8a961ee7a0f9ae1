package sched

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestIndexPoolExactlyOnce is the pool's core safety property: across
// shapes and participant counts, every index in [0, count) is claimed
// by exactly one Next call — no loss, no duplication — no matter how
// the steals interleave.
func TestIndexPoolExactlyOnce(t *testing.T) {
	shapes := []struct{ count, parts, grain int }{
		{0, 1, 1}, {1, 1, 1}, {1, 8, 1}, {7, 3, 1}, {100, 4, 1},
		{100, 4, 7}, {1000, 8, 3}, {1000, 2, 1000}, {64, 64, 1},
		{9973, 5, 16}, {10, 4, math.MaxInt},
	}
	for _, sh := range shapes {
		p := NewIndexPool(sh.count, sh.parts, sh.grain)
		var claims []atomic.Int32
		if sh.count > 0 {
			claims = make([]atomic.Int32, sh.count)
		}
		var wg sync.WaitGroup
		for self := 0; self < sh.parts; self++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for {
					start, n := p.Next(self)
					if n == 0 {
						return
					}
					if start%sh.grain != 0 {
						t.Errorf("shape %+v: claim start %d not aligned to grain %d", sh, start, sh.grain)
					}
					if n > sh.grain {
						t.Errorf("shape %+v: claim length %d exceeds grain", sh, n)
					}
					for i := start; i < start+n; i++ {
						claims[i].Add(1)
					}
				}
			}(self)
		}
		wg.Wait()
		for i := range claims {
			if got := claims[i].Load(); got != 1 {
				t.Fatalf("shape %+v: index %d claimed %d times", sh, i, got)
			}
		}
	}
}

// TestIndexPoolDrainAccounting races claimers against a drainer and
// checks the two tallies partition the index space exactly.
func TestIndexPoolDrainAccounting(t *testing.T) {
	const count, parts = 5000, 4
	p := NewIndexPool(count, parts, 3)
	var claimed, drained atomic.Int64
	var wg sync.WaitGroup
	for self := 0; self < parts; self++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				_, n := p.Next(self)
				if n == 0 {
					return
				}
				claimed.Add(int64(n))
			}
		}(self)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		drained.Add(int64(p.Drain()))
	}()
	wg.Wait()
	// Claimers may still have found work installed after the drain
	// swept past a share; one final drain settles any remainder.
	drained.Add(int64(p.Drain()))
	if got := claimed.Load() + drained.Load(); got != count {
		t.Fatalf("claimed %d + drained %d = %d, want %d", claimed.Load(), drained.Load(), got, count)
	}
}

// TestIndexPoolStealsRecorded: a starving participant must obtain
// work by stealing, and the pool must count it.
func TestIndexPoolStealsRecorded(t *testing.T) {
	p := NewIndexPool(100, 2, 1)
	// Participant 1 claims everything; its own share empties and the
	// rest must come from participant 0's share.
	total := 0
	for {
		_, n := p.Next(1)
		if n == 0 {
			break
		}
		total += n
	}
	if total != 100 {
		t.Fatalf("claimed %d, want 100", total)
	}
	if p.Steals() == 0 {
		t.Fatal("expected at least one recorded steal")
	}
}

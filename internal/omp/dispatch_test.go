package omp

import (
	"math"
	"sync/atomic"
	"testing"
)

// schedulesOf returns every schedule kind at the given chunk size.
// Steal comes first: its overflow runs nothing, so it fails at once,
// where one in StaticChunk or Dynamic runs out-of-range indices without
// end.
func schedulesOf(chunk int) []Schedule {
	return []Schedule{Steal{Chunk: chunk}, Static{}, StaticChunk{Chunk: chunk},
		Dynamic{Chunk: chunk}, Guided{MinChunk: chunk}}
}

// TestHugeChunksRunEveryIndexOnce: a chunk size far above the loop
// count, up to math.MaxInt, is one chunk of the whole loop; no
// schedule's chunk arithmetic may overflow into running an index twice,
// out of range, or not at all.
func TestHugeChunksRunEveryIndexOnce(t *testing.T) {
	for kind := range 5 {
		for _, chunk := range []int{1, 3, math.MaxInt/2 + 1, math.MaxInt} {
			s := schedulesOf(chunk)[kind]
			for threads := 1; threads <= 4; threads++ {
				for _, count := range []int{0, 1, 10, 97} {
					hits := make([]atomic.Int64, count)
					var stray atomic.Int64
					err := For(0, count, s, func(_, i int) {
						if i < 0 || i >= count {
							stray.Add(1)
							return
						}
						hits[i].Add(1)
					}, WithNumThreads(threads))
					if err != nil {
						t.Fatalf("%s threads=%d count=%d: %v", s.Name(), threads, count, err)
					}
					if n := stray.Load(); n > 0 {
						t.Fatalf("%s threads=%d count=%d: %d out-of-range indices ran", s.Name(), threads, count, n)
					}
					for i := range hits {
						if n := hits[i].Load(); n != 1 {
							t.Fatalf("%s threads=%d count=%d: index %d ran %d times", s.Name(), threads, count, i, n)
						}
					}
				}
			}
		}
	}
}

// FuzzDispatch drives one dispatcher single-threaded, in a thread order
// the fuzzer chooses, and checks that every index is claimed exactly
// once; under StaticChunk, Dynamic and Steal every claim must also
// start on a chunk boundary and be at most one chunk long.
func FuzzDispatch(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		for _, chunk := range []int{1, 3, math.MaxInt/2 + 1, math.MaxInt} {
			f.Add(kind, chunk, uint16(10), uint8(3), []byte{0, 1, 2, 2, 1})
			f.Add(kind, chunk, uint16(97), uint8(4), []byte{3})
		}
	}
	f.Add(uint8(2), 0, uint16(5), uint8(1), []byte{})
	f.Add(uint8(4), -7, uint16(5), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, chunk int, countRaw uint16, threadsRaw uint8, order []byte) {
		count := int(countRaw) % 4097
		threads := 1 + int(threadsRaw)%8
		s := schedulesOf(chunk)[kind%5]
		d, err := NewDispatcher(s, count, threads)
		_, static := s.(Static)
		if chunk < 1 && !static {
			if err == nil {
				t.Fatalf("%s accepted", s.Name())
			}
			return
		}
		if err != nil {
			t.Fatalf("%s count=%d threads=%d: %v", s.Name(), count, threads, err)
		}
		_, guided := s.(Guided)
		aligned := !static && !guided
		claimed := make([]bool, count)
		active := make([]int, threads)
		for i := range active {
			active[i] = i
		}
		for step := 0; len(active) > 0; step++ {
			if step > count+threads {
				t.Fatalf("%s count=%d threads=%d: no end after %d claims", s.Name(), count, threads, step)
			}
			pick := 0
			if len(order) > 0 {
				pick = int(order[step%len(order)]) % len(active)
			}
			tid := active[pick]
			start, n := d.Next(tid)
			if n == 0 {
				active = append(active[:pick], active[pick+1:]...)
				continue
			}
			if n < 0 || start < 0 || start > count-n {
				t.Fatalf("%s: thread %d claimed [%d,+%d) outside [0,%d)", s.Name(), tid, start, n, count)
			}
			if aligned && (start%chunk != 0 || n > chunk) {
				t.Fatalf("%s: thread %d claimed [%d,+%d), off the chunk grid", s.Name(), tid, start, n)
			}
			for i := start; i < start+n; i++ {
				if claimed[i] {
					t.Fatalf("%s: index %d claimed twice", s.Name(), i)
				}
				claimed[i] = true
			}
		}
		for i, c := range claimed {
			if !c {
				t.Fatalf("%s count=%d threads=%d: index %d never claimed", s.Name(), count, threads, i)
			}
		}
	})
}

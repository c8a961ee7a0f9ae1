package omp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestForReduceSum(t *testing.T) {
	got, err := ForReduce(0, 1001, Static{}, 0,
		func(a, b int) int { return a + b },
		func(i, acc int) int { return acc + i },
		WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1000 * 1001 / 2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestForReduceMax(t *testing.T) {
	xs := []int{3, 9, 1, 7, 9, 2, 8}
	got, err := ForReduce(0, len(xs), Dynamic{Chunk: 2}, math.MinInt,
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		},
		func(i, acc int) int {
			if xs[i] > acc {
				return xs[i]
			}
			return acc
		},
		WithNumThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("max = %d", got)
	}
}

func TestForReduceDeterministicFloatOrder(t *testing.T) {
	// A static schedule gives every thread the same iterations on every
	// run, and the serial tid-order combine fixes how the partials meet,
	// so a float sum reproduces bitwise for a fixed team size. (Under a
	// dynamic schedule only the combine order is fixed: chunk ownership,
	// and with it each float partial, changes run to run.)
	body := func(i int, acc float64) float64 { return acc + 1.0/float64(i+1) }
	comb := func(a, b float64) float64 { return a + b }
	first, err := ForReduce(0, 5000, StaticChunk{Chunk: 7}, 0.0, comb, body, WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		again, err := ForReduce(0, 5000, StaticChunk{Chunk: 7}, 0.0, comb, body, WithNumThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d: %v != %v (combine order not deterministic)", k, again, first)
		}
	}
}

func TestForReduceMatchesSequential(t *testing.T) {
	f := func(nRaw, threadsRaw, chunkRaw uint8) bool {
		n := int(nRaw) % 300
		threads := 1 + int(threadsRaw)%8
		chunk := 1 + int(chunkRaw)%5
		want := 0
		for i := 0; i < n; i++ {
			want += i * i
		}
		got, err := ForReduce(0, n, Guided{MinChunk: chunk}, 0,
			func(a, b int) int { return a + b },
			func(i, acc int) int { return acc + i*i },
			WithNumThreads(threads))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestForReduceTreeMatchesSerialCombine(t *testing.T) {
	comb := func(a, b int) int { return a + b }
	body := func(i, acc int) int { return acc + i }
	serial, err := ForReduce(0, 999, Static{}, 0, comb, body, WithNumThreads(5))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ForReduceTree(0, 999, Static{}, 0, comb, body, WithNumThreads(5))
	if err != nil {
		t.Fatal(err)
	}
	if serial != tree {
		t.Fatalf("serial %d != tree %d for integer sum", serial, tree)
	}
}

func TestForReduceCriticalMatches(t *testing.T) {
	want := 0
	for i := 0; i < 500; i++ {
		want += i
	}
	got, err := ForReduceCritical(0, 500, Dynamic{Chunk: 4}, 0,
		func(a, b int) int { return a + b },
		func(i int) int { return i },
		WithNumThreads(6))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("critical reduce = %d, want %d", got, want)
	}
}

func TestForReduceEmptyRange(t *testing.T) {
	got, err := ForReduce(0, 0, Static{}, 41,
		func(a, b int) int { return a + b },
		func(i, acc int) int { return acc + i },
		WithNumThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	// identity combined once per thread plus final: sum must stay 4*41+41?
	// No: each thread's partial is the untouched identity, and the final
	// fold is identity ⊕ partial0 ⊕ ... — for a true identity (0 for +)
	// the result is the identity itself. 41 is deliberately NOT a valid
	// identity for +, which is how we document the contract: with a
	// non-identity seed the result is (threads+1)*seed.
	if got != 41*(3+1) {
		t.Fatalf("empty-range fold = %d", got)
	}
}

func TestForReduceValidation(t *testing.T) {
	if _, err := ForReduce[int](0, 5, Static{}, 0, nil, nil); err == nil {
		t.Fatal("nil funcs accepted")
	}
	if _, err := ForReduceTree[int](0, 5, Static{}, 0, nil, nil); err == nil {
		t.Fatal("nil funcs accepted by tree variant")
	}
	if _, err := ForReduceCritical[int](0, 5, Static{}, 0, nil, nil); err == nil {
		t.Fatal("nil funcs accepted by critical variant")
	}
	if _, err := ForReduce(0, 5, Dynamic{Chunk: -1}, 0,
		func(a, b int) int { return a + b },
		func(i, acc int) int { return acc }, WithNumThreads(2)); err == nil {
		t.Fatal("bad schedule accepted")
	}
}

func TestForReduceTreeMatchesSequentialProperty(t *testing.T) {
	f := func(nRaw, threadsRaw uint8) bool {
		n := int(nRaw) % 200
		threads := 1 + int(threadsRaw)%8
		want := 0
		for i := 0; i < n; i++ {
			want += 3*i + 1
		}
		got, err := ForReduceTree(0, n, Dynamic{Chunk: 3}, 0,
			func(a, b int) int { return a + b },
			func(i, acc int) int { return acc + 3*i + 1 },
			WithNumThreads(threads))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

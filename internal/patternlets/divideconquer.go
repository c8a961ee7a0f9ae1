package patternlets

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"pblparallel/internal/sched"
)

// The divide-and-conquer patternlet: recursive quicksort where each
// recursion forks its two halves as a nested two-index region on the
// work-stealing runtime, the same region that serves /v1/sweep and
// /v1/cohort. It teaches the discipline the course's quicksort project
// needed — "spawn a goroutine if a worker is free, otherwise recurse
// sequentially" — except the runtime makes the decision per fork: the
// caller sorts the left half, an idle worker may join the region and
// take the right half, and if none does the caller sorts it too.

// dcCutoff is the sequential leaf size; below it forking costs more
// than sorting.
const dcCutoff = 512

// DivideConquerReport is the patternlet's measured outcome.
type DivideConquerReport struct {
	N       int
	Workers int
	Sorted  bool
	// Forks counts the two-half forks, Inlined the right halves the
	// forking goroutine ran itself because no worker joined in time,
	// Peer the ones a joined worker ran: Inlined + Peer == Forks.
	Forks, Inlined, Peer int64
}

// DivideConquer sorts n pseudo-random (seed-deterministic) integers by
// parallel quicksort on a fresh work-stealing runtime with the given
// worker count and reports what the runtime did.
func DivideConquer(n, workers int, seed int64) (*DivideConquerReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("patternlets: divideconquer needs n >= 1, got %d", n)
	}
	if workers < 1 {
		return nil, fmt.Errorf("patternlets: divideconquer needs workers >= 1, got %d", workers)
	}
	data := make([]int64, n)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = int64(x % 1_000_000)
	}
	rt := sched.New(sched.WithWorkers(workers))
	defer rt.Close()
	q := &quicksorter{rt: rt}
	q.sort(data)
	return &DivideConquerReport{
		N:       n,
		Workers: workers,
		Sorted:  sort.SliceIsSorted(data, func(i, j int) bool { return data[i] < data[j] }),
		Forks:   q.forks.Load(),
		Inlined: q.inlined.Load(),
		Peer:    q.peer.Load(),
	}, nil
}

// quicksorter is the recursive kernel and the ledger of its forks.
type quicksorter struct {
	rt                   *sched.Runtime
	forks, inlined, peer atomic.Int64
}

// sort partitions a, then forks the halves as indices 0 and 1 of one
// region. The region returns only once both halves are sorted, so the
// recursion is safe whichever goroutine ran the right half.
func (q *quicksorter) sort(a []int64) {
	if len(a) <= dcCutoff {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return
	}
	p := partition(a)
	left, right := a[:p], a[p+1:]
	q.forks.Add(1)
	q.rt.ParallelIndexed(context.Background(), 2, 2, 1, func(i, slot int) {
		if i == 0 {
			q.sort(left)
			return
		}
		if slot == 0 {
			q.inlined.Add(1)
		} else {
			q.peer.Add(1)
		}
		q.sort(right)
	})
}

// partition is Hoare-style median-of-three around a[hi], returning the
// pivot's final index.
func partition(a []int64) int {
	hi := len(a) - 1
	mid := hi / 2
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[hi] < a[0] {
		a[hi], a[0] = a[0], a[hi]
	}
	if a[mid] < a[hi] {
		a[mid], a[hi] = a[hi], a[mid]
	}
	pivot := a[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

func demoDivideConquer(w io.Writer, nThreads int) error {
	rep, err := DivideConquer(200_000, nThreads, 1905)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "quicksort of %d values on %d workers\n", rep.N, rep.Workers)
	fmt.Fprintf(w, "sorted correctly:    %t\n", rep.Sorted)
	fmt.Fprintf(w, "forks:               %d\n", rep.Forks)
	fmt.Fprintf(w, "right half inline:   %d\n", rep.Inlined)
	fmt.Fprintf(w, "right half on peer:  %d\n", rep.Peer)
	fmt.Fprintln(w, "lesson: fork both halves every time — a free worker joins the fork and takes the right half, and when none is free the forking goroutine sorts it itself, so throttling happens by itself")
	return nil
}

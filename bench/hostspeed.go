package bench

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"time"
)

// refWork is a fixed amount of CPU work done by the standard library
// alone, so no change to the repository's code can make it faster:
// hashing, sorting and JSON encoding, with the allocation that goes
// with them.
func refWork() {
	buf := make([]byte, 16<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	xs := make([]int, 4096)
	for r := 0; r < 6; r++ {
		for i := 0; i < 40; i++ {
			sum := sha256.Sum256(buf)
			buf[i] = sum[0]
		}
		for i := range xs {
			xs[i] = int(buf[i%len(buf)])*7919 + i*(r+1)%97
		}
		sort.Ints(xs)
		b, _ := json.Marshal(xs[:512])
		buf[r] = b[len(b)/2]
	}
}

// refRounds is how many times each CPU does refWork in one nominal
// host-speed reading.
const refRounds = 10

// hostSpeed times rounds of refWork on every CPU at once, three times,
// and returns the median scaled to refRounds rounds: how fast this host
// is running right now.
func hostSpeed(rounds int) time.Duration {
	rounds = max(rounds, 1)
	d := make([]time.Duration, 3)
	for k := range d {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < runtime.NumCPU(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					refWork()
				}
			}()
		}
		wg.Wait()
		d[k] = time.Since(start) * refRounds / time.Duration(rounds)
	}
	return median(d)
}

// refNominal is how long hostSpeed takes on a quiet host: the one the
// committed baselines were measured on (README.md), when nothing else
// ran on it.
const refNominal = 40 * time.Millisecond

// scaled converts d, measured while hostSpeed read before and after
// around it, into the time it would have taken on a host as fast as the
// nominal one. A shared host's speed drifts by a factor of two within
// minutes, and every time in a run drifts with it; scaling by a
// reference keeps runs made minutes apart comparable. The reference is
// read with the daemon stopped (runner.hostSpeed), so no change to the
// repository can make it faster or slower.
func scaled(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refNominal) / float64(before+after))
}

package bench

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pblparallel/internal/serve"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pm int
		ok    bool
	}{
		{100000, 990, true},
		{1000, 990, true},
		{999, 900, true},
		{100, 900, true},
		{99, 500, true},
		{20, 500, true},
		{19, 500, false},
		{0, 500, false},
	} {
		if pm, ok := tailPerMille(c.n); pm != c.pm || ok != c.ok {
			t.Errorf("tailPerMille(%d) = %d, %t; want %d, %t", c.n, pm, ok, c.pm, c.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	for pm, want := range map[int]time.Duration{500: 500, 900: 900, 990: 990, 1000: 1000} {
		if got := percentile(d, pm); got != want {
			t.Errorf("p%d of 1..1000 = %d, want %d", pm/10, got, want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5, 0.5}, [3]float64{1.25, 3.5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	bs := []bucket{{0.001, 50}, {0.01, 90}, {0.1, 100}}
	for q, want := range map[float64]float64{0.5: 0.001, 0.7: 0.0055, 0.95: 0.055, 0.25: 0.0005} {
		if got := bucketQuantile(q, bs); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("q%g = %g, want %g", q, got, want)
		}
	}
	if got := bucketQuantile(0.5, []bucket{{0.1, 0}}); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

// A stub server that stalls one request for 100 ms must delay every
// request due during the stall, and the delay must count in their
// latency and in the generator's lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) == `{"seed":5}` {
			time.Sleep(stall)
		}
		w.Write(body)
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	p := &plan{clients: 1, rate: 200, at: func(i int) call { return runCall(int64(i)) }}
	w := drive(context.Background(), cl, p, newLedger(), 0, 400*time.Millisecond)
	if w.failed != 0 {
		t.Fatalf("%d failed: %v", w.failed, w.errs)
	}
	if len(w.samples) != 80 {
		t.Errorf("sent %d requests in 400 ms at 200/s, want 80", len(w.samples))
	}
	late := 0
	for _, s := range w.samples {
		if s.lat >= stall/2 {
			late++
		}
	}
	// Requests 5..14 were due within 50 ms of the stall's start.
	if late < 10 {
		t.Errorf("%d requests took >= 50 ms from their due time, want >= 10 (the stall must count)", late)
	}
	if lag := lagP99(w); lag < stall/2 {
		t.Errorf("generator lag p99 %v, want >= 50 ms", lag)
	}

	// Closed loop, the same stall delays only the stalled request.
	p.rate = 0
	w = drive(context.Background(), cl, p, newLedger(), 0, 300*time.Millisecond)
	late = 0
	for _, s := range w.samples {
		if s.lat >= stall/2 {
			late++
		}
	}
	if lag := lagP99(w); late != 1 || lag != 0 {
		t.Errorf("closed loop: %d slow requests and lag p99 %v, want 1 and 0", late, lag)
	}
}

func TestTieredKeySequenceIsSeeded(t *testing.T) {
	seq := func(seed int64) []string {
		p, err := newPlan(Tiered, seed, FullSizes)
		if err != nil {
			t.Fatal(err)
		}
		s := make([]string, 5000)
		for i := range s {
			s[i] = p.at(i).key()
		}
		return s
	}
	a := seq(7)
	if !reflect.DeepEqual(a, seq(7)) {
		t.Fatal("seed 7 gave two different key sequences")
	}
	if reflect.DeepEqual(a, seq(8)) {
		t.Fatal("seeds 7 and 8 gave the same key sequence")
	}
	if p, _ := newPlan(Tiered, 7, FullSizes); len(p.persist) != FullSizes.TieredKeys {
		t.Fatalf("%d persisted keys, want %d", len(p.persist), FullSizes.TieredKeys)
	}
}

// simulatedTieredMix replays a full run of tiered through tierModel with
// the memory tier at capacity entries: the set-up request, one second of
// warm-up and a 10 s window at FullSizes' rate. It returns the window's
// tier mix, averaged over seeds 1 to 10.
func simulatedTieredMix(t *testing.T, capacity int) tierMix {
	warm, timed := int(FullSizes.TieredRate), int(10*FullSizes.TieredRate)
	var avg tierMix
	const seeds = 10
	for seed := int64(1); seed <= seeds; seed++ {
		p, err := newPlan(Tiered, seed, FullSizes)
		if err != nil {
			t.Fatal(err)
		}
		m := newTierModel(capacity, p.persist)
		m.serve(p.setup(0))
		var st []serve.CacheStatus
		for i := 0; i < warm+timed; i++ {
			if s := m.serve(p.at(i)); i >= warm {
				st = append(st, s)
			}
		}
		x := mixOf(st)
		avg.Mem += x.Mem / seeds
		avg.Disk += x.Disk / seeds
		avg.Miss += x.Miss / seeds
	}
	return avg
}

// tiered's memory tier is the smallest that answers tieredTarget.Mem of
// the requests in the model, and the model's mix is then the target. An
// LRU tier's hits only grow with its size, so the size one smaller is
// the only other one to try.
func TestTieredParametersGiveTheTarget(t *testing.T) {
	got := simulatedTieredMix(t, tieredCache)
	if smaller := simulatedTieredMix(t, tieredCache-1); got.Mem < tieredTarget.Mem || smaller.Mem >= tieredTarget.Mem {
		t.Errorf("memory share %.4f at %d entries and %.4f at %d; tieredCache must be the smallest size that reaches %.2f",
			got.Mem, tieredCache, smaller.Mem, tieredCache-1, tieredTarget.Mem)
	}
	for _, d := range []float64{got.Mem - tieredTarget.Mem, got.Disk - tieredTarget.Disk, got.Miss - tieredTarget.Miss} {
		if math.Abs(d) > 0.02 {
			t.Errorf("model mix %v, want %v within 0.02", got, tieredTarget)
			break
		}
	}
}

func TestTierModel(t *testing.T) {
	a, b, c := runCall(1), runCall(2), runCall(3)
	m := newTierModel(2, []call{a})
	want := []serve.CacheStatus{serve.CacheDiskHit, serve.CacheMiss, serve.CacheHit, serve.CacheMiss, serve.CacheDiskHit, serve.CacheHit}
	for k, x := range []call{a, b, a, c, b, c} { // the memory tier holds two: c evicts b, which is on disk by then
		if got := m.serve(x); got != want[k] {
			t.Errorf("request %d (%s): %s, want %s", k, x.key(), got, want[k])
		}
	}
}

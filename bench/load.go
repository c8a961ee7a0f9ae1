package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// goodLatency is pbld's own latency objective: a response slower than
// this misses it (serve.DefaultSLOs).
const goodLatency = 250 * time.Millisecond

// served is the first response to one call: its digest, which every
// later response to the call must match, and which the call's
// in-process recomputation must match after the run (checkAll).
type served struct {
	c   call
	sum [sha256.Size]byte
}

// ledger holds the first-seen response digest of every call a run sent.
type ledger struct {
	mu    sync.Mutex
	first map[string]served
}

func newLedger() *ledger { return &ledger{first: make(map[string]served)} }

// check records the digest of c's first response, and reports whether
// body matches it.
func (l *ledger) check(c call, body []byte) bool {
	sum := sha256.Sum256(body)
	k := c.key()
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.first[k]; ok {
		return f.sum == sum
	}
	l.first[k] = served{c, sum}
	return true
}

// client sends generated calls to one daemon over at most conns
// keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// post sends body to path and reads the whole response into buf.
func (cl *client) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (status int, cache string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// get fetches path's body.
func (cl *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

// do sends c and checks the answer: a 200 whose bytes match the ledger.
func (cl *client) do(ctx context.Context, c call, led *ledger, buf *bytes.Buffer) (cache string, err error) {
	status, cache, err := cl.post(ctx, kindPath[c.kind], c.body, buf)
	switch {
	case err != nil:
		return cache, err
	case status != http.StatusOK:
		return cache, fmt.Errorf("%s %s: status %d: %s", kindPath[c.kind], c.body, status, bytes.TrimSpace(buf.Bytes()))
	case !led.check(c, buf.Bytes()):
		return cache, fmt.Errorf("%s %s: bytes differ from the first response", kindPath[c.kind], c.body)
	}
	return cache, nil
}

// sample is one timed request.
type sample struct {
	i      int // the call's index in the plan
	client int
	start  time.Duration // send time, from the window's start
	lat    time.Duration // from due time (open loop) or send (closed) to the last byte
	lag    time.Duration // open loop: how late the send was
	cache  string        // X-Cache, empty on failure
	ok     bool
}

// window is what one timed stretch of load produced.
type window struct {
	t0      time.Time
	samples []sample
	errs    []error // first few failures
	failed  int
	elapsed time.Duration
	next    int // the index the following window starts from; every index before it was taken
}

// oks returns the latencies of the successful requests.
func (w *window) oks() []time.Duration {
	var d []time.Duration
	for _, s := range w.samples {
		if s.ok {
			d = append(d, s.lat)
		}
	}
	return d
}

// lagP99 is the 99th percentile of how late the windows' sends were.
func lagP99(ws ...*window) time.Duration {
	var lags []time.Duration
	for _, w := range ws {
		for _, s := range w.samples {
			lags = append(lags, s.lag)
		}
	}
	return percentile(sortDurations(lags), 990)
}

// drive sends p's calls from index from on for d, closed loop with
// p.clients clients, or open loop at p.rate with p.clients senders, and
// returns every request's sample. An open-loop request is timed from
// the moment it was due, so a stall inflates the latency of every
// request queued behind it.
func drive(ctx context.Context, cl *client, p *plan, led *ledger, from int, d time.Duration) *window {
	var next atomic.Int64
	next.Store(int64(from))
	t0 := time.Now()
	end := t0.Add(d)
	parts := make([]window, p.clients)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int, w *window) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				var due time.Time
				if p.rate > 0 {
					due = t0.Add(time.Duration(float64(i-from) / p.rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					sleepUntil(due)
				}
				sent := time.Now()
				if p.rate == 0 {
					if !sent.Before(end) {
						return
					}
					due = sent
				}
				cache, err := cl.do(ctx, p.at(i), led, &buf)
				s := sample{i: i, client: g, start: sent.Sub(t0), lat: time.Since(due), lag: sent.Sub(due), cache: cache, ok: err == nil}
				w.samples = append(w.samples, s)
				if err != nil {
					w.failed++
					if len(w.errs) < 3 {
						w.errs = append(w.errs, err)
					}
				}
			}
		}(g, &parts[g])
	}
	wg.Wait()
	all := &window{t0: t0, elapsed: time.Since(t0), next: int(next.Load())}
	for _, w := range parts {
		all.samples = append(all.samples, w.samples...)
		all.errs = append(all.errs, w.errs...)
		all.failed += w.failed
	}
	return all
}

// spinFor is how long before a send is due the open-loop generator
// stops sleeping and spins. Waking from nanosleep on a virtual machine
// takes tens to hundreds of microseconds and varies with the host's
// load; spinning the last stretch keeps the send on time for about 4%
// of a CPU at tiered's rate.
const spinFor = 200 * time.Microsecond

// sleepUntil returns at t: it blocks the calling thread in nanosleep
// until shortly before, then spins. The Go runtime's own timers wake an
// idle process through epoll_pwait, whose millisecond timeout would
// make the generator up to a millisecond late on every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t) - spinFor; d > 0; d = time.Until(t) - spinFor {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
	for time.Now().Before(t) {
	}
}

// sendAll sends every call once over p.clients clients, untimed.
func sendAll(ctx context.Context, cl *client, calls []call, clients int, led *ledger) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(calls) && errs[g] == nil; i = int(next.Add(1) - 1) {
				_, errs[g] = cl.do(ctx, calls[i], led, &buf)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

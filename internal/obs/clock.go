package obs

import (
	"sync"
	"time"
)

// Clock is the observability stack's one background ticker. Jobs
// registered with Every run on its goroutine in registration order, so
// each sees the effects of those before it on the same tick: the daemon
// samples the TSDB, evaluates its rules over that fresh sample, then
// runs the profiler cycle. A job must not block; work with a duration
// of its own (a CPU profile window) ends on a timer. Start and Stop are
// idempotent and safe on a nil Clock.
type Clock struct {
	tick time.Duration

	mu    sync.Mutex
	jobs  []clockJob
	ticks uint64
	stop  chan struct{} // nil while stopped
	done  chan struct{} // closed when the ticking goroutine exits
}

type clockJob struct {
	every uint64 // run on every every-th tick
	run   func(now time.Time)
}

// NewClock builds a stopped clock that ticks every tick (<=0 selects 5s).
func NewClock(tick time.Duration) *Clock {
	if tick <= 0 {
		tick = 5 * time.Second
	}
	return &Clock{tick: tick}
}

// Every registers run on every ⌈period/tick⌉-th tick, and on every tick
// when period is at most one tick.
func (c *Clock) Every(period time.Duration, run func(now time.Time)) {
	every := uint64(1)
	if period > c.tick {
		every = uint64((period + c.tick - 1) / c.tick)
	}
	c.mu.Lock()
	c.jobs = append(c.jobs, clockJob{every: every, run: run})
	c.mu.Unlock()
}

// Start launches the ticking goroutine.
func (c *Clock) Start() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(c.tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				c.step(now)
			}
		}
	}()
}

// step advances the clock one tick and runs the jobs due on it.
func (c *Clock) step(now time.Time) {
	c.mu.Lock()
	c.ticks++
	n, jobs := c.ticks, c.jobs
	c.mu.Unlock()
	for _, j := range jobs {
		if n%j.every == 0 {
			j.run(now)
		}
	}
}

// Stop halts the ticker and returns once its goroutine has exited, so
// no job is running, or will run, after it.
func (c *Clock) Stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

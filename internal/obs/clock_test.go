package obs

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestClockOrderAndPeriods drives ticks by hand: jobs run in
// registration order, and each runs on every ⌈period/tick⌉-th tick.
func TestClockOrderAndPeriods(t *testing.T) {
	c := NewClock(5 * time.Second)
	var log []string
	job := func(name string) func(time.Time) {
		return func(time.Time) { log = append(log, name) }
	}
	c.Every(5*time.Second, job("sample"))
	c.Every(time.Second, job("eval"))     // shorter than a tick: every tick
	c.Every(12*time.Second, job("third")) // ⌈12/5⌉ = 3
	c.Every(30*time.Second, job("sixth")) // 30/5 = 6 exactly
	c.Every(0, job("zero"))               // every tick
	for i := 0; i < 6; i++ {
		c.step(time.Unix(int64(i), 0))
	}
	want := []string{
		"sample", "eval", "zero",
		"sample", "eval", "zero",
		"sample", "eval", "third", "zero",
		"sample", "eval", "zero",
		"sample", "eval", "zero",
		"sample", "eval", "third", "sixth", "zero",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("run order\n got %v\nwant %v", log, want)
	}
}

// TestClockStartStop: the real ticker runs jobs, Start and Stop are
// idempotent, a stopped clock runs nothing more, and the nil clock is
// inert.
func TestClockStartStop(t *testing.T) {
	var nilClock *Clock
	nilClock.Start()
	nilClock.Stop()

	c := NewClock(time.Millisecond)
	var runs atomic.Int64
	c.Every(time.Millisecond, func(time.Time) { runs.Add(1) })
	c.Stop() // before Start: no-op
	c.Start()
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for runs.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("clock ran its job fewer than 3 times within 2s")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop()
	after := runs.Load()
	time.Sleep(10 * time.Millisecond)
	if got := runs.Load(); got != after {
		t.Fatalf("stopped clock ran %d more jobs", got-after)
	}
	// A restarted clock ticks again.
	c.Start()
	defer c.Stop()
	for runs.Load() == after {
		if time.Now().After(deadline.Add(2 * time.Second)) {
			t.Fatal("restarted clock never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

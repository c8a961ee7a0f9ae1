package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"
)

// maxSpans bounds a trace file; spans past it are counted, not kept.
const maxSpans = 200_000

// traceEvent is one complete ("X") event of the Chrome trace_event
// format, loadable in chrome://tracing and Perfetto.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the trace began
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Trace lanes: client requests on one per client, probes on their own.
const (
	pidClient = 1
	pidProbe  = 2
)

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	ev      []traceEvent
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span; args alternate key and value.
func (l *spanLog) add(pid, tid int, cat, name string, start time.Time, d time.Duration, args ...string) {
	if l == nil {
		return
	}
	ev := traceEvent{Name: name, Cat: cat, Ph: "X", PID: pid, TID: tid,
		TS: us(start.Sub(l.t0)), Dur: us(d)}
	if len(args) > 1 {
		ev.Args = make(map[string]string, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			ev.Args[args[i]] = args[i+1]
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ev) >= maxSpans {
		l.dropped++
		return
	}
	l.ev = append(l.ev, ev)
}

// time runs fn and records it as a span.
func (l *spanLog) time(cat, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.add(pidProbe, 1, cat, name, start, d)
	return d
}

// write saves the spans as a Chrome trace file.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent      `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		Metadata        map[string]string `json:"metadata"`
	}{l.ev, "ms", map[string]string{"dropped_spans": strconv.Itoa(l.dropped)}})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

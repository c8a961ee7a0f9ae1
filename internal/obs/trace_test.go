package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSpanRecordsCompleteEvent(t *testing.T) {
	tr := NewTracer(1024)
	sp := tr.Span(PIDCore, 7, "core", "cohort").Int("seed", 42).Str("mode", "paper")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Span(PIDMPI, 1, "mpi", "send").Int("to", 2).Emit()

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("recorded %d records, want 2", len(recs))
	}
	x := recs[0]
	if x.Phase != 'X' || x.PID != PIDCore || x.TID != 7 || x.Cat != "core" || x.Name != "cohort" {
		t.Fatalf("span record = %+v", x)
	}
	if x.Dur < time.Millisecond {
		t.Fatalf("span dur %v, want >= 1ms", x.Dur)
	}
	if x.Args["seed"] != int64(42) || x.Args["mode"] != "paper" {
		t.Fatalf("span args = %v", x.Args)
	}
	i := recs[1]
	if i.Phase != 'i' || i.PID != PIDMPI || i.Args["to"] != int64(2) {
		t.Fatalf("instant record = %+v", i)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Span(PIDOMP, 0, "omp", "x").Int("k", 1).Str("s", "v")
	sp.End()
	sp.Emit()
	tr.SpanAt(PIDPisim, 0, "pisim", "y", time.Second).EndAt(time.Second)
	if recs := tr.Records(); recs != nil {
		t.Fatalf("nil tracer returned records: %v", recs)
	}
	if tr.Evicted() != 0 {
		t.Fatal("nil tracer reports evictions")
	}
}

// TestDisabledSpanFastPathAllocs is the acceptance criterion for the
// disabled hot path: with no tracer installed, opening and ending a
// span must not allocate.
func TestDisabledSpanFastPathAllocs(t *testing.T) {
	Install(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Default().Span(PIDOMP, 3, "omp", "chunk")
		sp = sp.Int("start", 10)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span fast path allocates %.1f per op, want 0", allocs)
	}
}

func TestRingWrapEvicts(t *testing.T) {
	tr := NewTracer(1) // rounds up to 16 per shard; still tiny
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Span(PIDCore, 0, "c", "s").End()
	}
	recs := tr.Records()
	if len(recs) >= n {
		t.Fatalf("ring kept %d of %d records; expected eviction", len(recs), n)
	}
	if tr.Evicted() != int64(n-len(recs)) {
		t.Fatalf("evicted %d, want %d", tr.Evicted(), n-len(recs))
	}
	// The survivors are the newest records per shard.
	last := recs[len(recs)-1]
	if last.Start == 0 {
		t.Fatal("expected newest records to survive the wrap")
	}
}

func TestConcurrentEmission(t *testing.T) {
	tr := NewTracer(1 << 14)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Span(PIDOMP, uint32(g), "omp", "work").Int("i", int64(i)).End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Records()); got != 1600 {
		t.Fatalf("recorded %d, want 1600", got)
	}
}

func TestWriteToProducesValidTraceEventJSON(t *testing.T) {
	tr := NewTracer(1024)
	tr.Span(PIDCore, 1, "core", "analysis").Int("seed", 9).End()
	tr.SpanAt(PIDPisim, 3, "pisim", "chunk", 2*time.Microsecond).Int("core", 3).EndAt(5 * time.Microsecond)
	tr.Span(PIDOMP, 2, "omp", "barrier.broken").Emit()

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  uint32         `json:"pid"`
			TID  uint32         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var phases []string
	var sawVirtual, sawMeta bool
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Ph)
		if ev.Ph == "M" && ev.Name == "process_name" {
			sawMeta = true
		}
		if ev.Cat == "pisim" {
			sawVirtual = true
			if ev.Ts != 2 || ev.Dur != 5 {
				t.Fatalf("virtual span ts/dur = %v/%v µs, want 2/5", ev.Ts, ev.Dur)
			}
		}
	}
	if !sawMeta {
		t.Fatalf("no process_name metadata in %v", phases)
	}
	if !sawVirtual {
		t.Fatal("virtual-time span missing from export")
	}
}

func TestInstallDefault(t *testing.T) {
	if Default() != nil {
		t.Fatal("tracer installed at test start")
	}
	tr := NewTracer(64)
	Install(tr)
	if Default() != tr {
		t.Fatal("Install did not take")
	}
	Install(nil)
	if Default() != nil {
		t.Fatal("uninstall did not take")
	}
}

func TestArgOverflowDropped(t *testing.T) {
	tr := NewTracer(64)
	sp := tr.Span(PIDCore, 0, "c", "s")
	for i := 0; i < 10; i++ {
		sp = sp.Int("k", int64(i))
	}
	sp.End()
	recs := tr.Records()
	if len(recs) != 1 || len(recs[0].Args) > maxArgs {
		t.Fatalf("args not bounded: %+v", recs)
	}
}

// TestRecordLayout pins what keeps the ring out of the GC's mark work:
// a record holds no pointer-bearing field, so the runtime allocates the
// ring as noscan memory, and it stays within 128 bytes.
func TestRecordLayout(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: the GC would scan every ring slot", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("record", reflect.TypeOf(record{}))
	if size := unsafe.Sizeof(record{}); size > 128 {
		t.Errorf("record is %d bytes, want <= 128", size)
	}
	if size := unsafe.Sizeof(shard{}); size != 64 {
		t.Errorf("shard is %d bytes, want one 64-byte cache line", size)
	}
}

// TestInternConcurrent interns overlapping string sets from several
// goroutines: every ID must resolve to its string, and all goroutines
// must agree on each string's ID.
func TestInternConcurrent(t *testing.T) {
	tab := newInternTable()
	const goroutines, strs = 8, 1000
	ids := make([][strs]uint16, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < strs; i++ {
				k := (i + g*strs/goroutines) % strs
				s := "s" + strconv.Itoa(k)
				ids[g][k] = tab.id(s)
				if got := tab.str(ids[g][k]); got != s {
					t.Errorf("id(%q) resolves to %q", s, got)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ids[g] != ids[0] {
			t.Fatalf("goroutine %d got different IDs from goroutine 0", g)
		}
	}
}

// TestInternHintRechecksBytes reuses one address for two contents, as
// the heap does after a string is freed: the address hint must not hand
// the new content the old content's ID.
func TestInternHintRechecksBytes(t *testing.T) {
	tab := newInternTable()
	buf := []byte("alpha")
	s := unsafe.String(&buf[0], len(buf))
	a := tab.id(s)
	copy(buf, "omega")
	o := tab.id(s)
	if a == o || tab.str(a) != "alpha" || tab.str(o) != "omega" {
		t.Fatalf("ids %d, %d resolve to %q, %q; want alpha, omega", a, o, tab.str(a), tab.str(o))
	}
}

// TestTraceRecordsFiltersRing checks that filtering on the ring gives
// exactly what filtering the full export gives, on a wrapped ring that
// mixes two traces with untraced records.
func TestTraceRecordsFiltersRing(t *testing.T) {
	tr := NewTracer(1)
	a, b := TraceContext{Trace: NewTraceID()}, TraceContext{Trace: NewTraceID()}
	for i := 0; i < 5000; i++ {
		sp := tr.Span(PIDEngine, uint32(i%7), "engine", "map.run").Int("index", int64(i))
		switch i % 3 {
		case 0:
			sp = sp.Trace(a)
		case 1:
			sp = sp.Trace(b).Str("outcome", "ok")
		}
		sp.End()
	}
	if tr.Evicted() == 0 {
		t.Fatal("ring did not wrap")
	}
	all := tr.Records()
	for _, id := range []TraceID{a.Trace, b.Trace} {
		var want []Record
		for _, r := range all {
			if r.Trace == id {
				want = append(want, r)
			}
		}
		got := tr.TraceRecords(id)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("TraceRecords(%s): %d records, filtering Records gives %d", id, len(got), len(want))
		}
	}
	if got := tr.TraceRecords(NewTraceID()); len(got) != 0 {
		t.Fatalf("unknown trace returned %d records", len(got))
	}
}

// TestInternTableBounded sends 100k distinct request methods through
// the middleware: the intern table stops at its cap, each method past
// it records as the overflow marker and is counted, and the trace
// still exports as valid JSON.
func TestInternTableBounded(t *testing.T) {
	tr := NewTracer(1 << 10)
	Install(tr)
	defer Install(nil)
	h := NewHTTPMetrics(NewRegistry()).Middleware("/v1/run", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	w, r := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	h.ServeHTTP(w, r)
	tr.names.mu.Lock()
	before := tr.names.n
	tr.names.mu.Unlock()
	const methods = 100_000
	for i := 0; i < methods; i++ {
		r.Method = "M" + strconv.Itoa(i)
		h.ServeHTTP(w, r)
	}
	tr.names.mu.Lock()
	size := tr.names.n
	tr.names.mu.Unlock()
	if size != internCap {
		t.Fatalf("intern table holds %d strings, want the cap %d", size, internCap)
	}
	var overflow float64 = -1
	for _, f := range tr.GatherMetrics() {
		if f.Name == "obs_trace_intern_overflow_total" {
			overflow = f.Points[0].Value
		}
	}
	if want := float64(methods - (internCap - before)); overflow != want {
		t.Fatalf("obs_trace_intern_overflow_total = %v, want %v", overflow, want)
	}
	recs := tr.Records()
	if got := recs[len(recs)-1].Args["method"]; got != overflowName {
		t.Fatalf("newest request's method = %v, want %q", got, overflowName)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
}

package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"empty site", Plan{Rules: []Rule{{Kind: MsgDrop, Prob: 0.5}}}},
		{"unknown kind", Plan{Rules: []Rule{{Site: SiteMPISend, Kind: nKinds, Prob: 0.5}}}},
		{"negative prob", Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: -0.1}}}},
		{"prob above one", Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: 1.5}}}},
		{"negative magnitude", Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDelay, Prob: 0.5, Max: -1}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.plan); err == nil {
			t.Errorf("%s: New accepted invalid plan", tc.name)
		}
	}
	if _, err := New(Plan{Seed: 7, Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: 1}}}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestHitDeterminism is the subsystem's core contract: the same plan
// and key always produce the same decision, across injector instances
// and regardless of call order or interleaving.
func TestHitDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Site: SiteMPISend, Kind: MsgDrop, Prob: 0.3},
		{Site: SiteMPISend, Kind: MsgDelay, Prob: 0.3},
		{Site: SiteOMPBarrier, Kind: ThreadStall, Prob: 0.5},
	}}
	a := mustNew(t, plan)
	b := mustNew(t, plan)
	// Draw b's decisions in reverse order to prove order-independence.
	type draw struct {
		f  Fault
		ok bool
	}
	const n = 2000
	got := make([]draw, n)
	for i := n - 1; i >= 0; i-- {
		f, ok := b.Hit(SiteMPISend, uint64(i))
		got[i] = draw{f, ok}
	}
	fired := 0
	for i := 0; i < n; i++ {
		f, ok := a.Hit(SiteMPISend, uint64(i))
		if ok != got[i].ok || f != got[i].f {
			t.Fatalf("key %d: decisions diverge across instances/order", i)
		}
		if ok {
			fired++
		}
	}
	// Two independent 0.3 rules fire with combined probability ~0.51;
	// wide bounds — this checks sanity, not the RNG's quality.
	if fired < n/4 || fired > (3*n)/4 {
		t.Fatalf("fired %d of %d draws under combined prob ~0.51", fired, n)
	}
	// Different sites draw independently.
	if _, ok := a.Hit(SiteEngineRun, 1); ok {
		t.Fatal("unruled site fired")
	}
}

func TestHitProbabilityExtremes(t *testing.T) {
	never := mustNew(t, Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: 0}}})
	always := mustNew(t, Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: 1}}})
	for k := uint64(0); k < 500; k++ {
		if _, ok := never.Hit(SiteMPISend, k); ok {
			t.Fatalf("prob-0 rule fired at key %d", k)
		}
		f, ok := always.Hit(SiteMPISend, k)
		if !ok || f.Kind != MsgDrop {
			t.Fatalf("prob-1 rule missed at key %d", k)
		}
	}
}

func TestForkDerivesIndependentStreams(t *testing.T) {
	base := mustNew(t, Plan{Seed: 9, Rules: []Rule{{Site: SiteEngineRun, Kind: RunFail, Prob: 0.5}}})
	same1 := base.Fork(3)
	same2 := base.Fork(3)
	other := base.Fork(4)
	agree, differ := true, false
	for k := uint64(0); k < 256; k++ {
		_, ok1 := same1.Hit(SiteEngineRun, k)
		_, ok2 := same2.Hit(SiteEngineRun, k)
		_, okOther := other.Hit(SiteEngineRun, k)
		if ok1 != ok2 {
			agree = false
		}
		if ok1 != okOther {
			differ = true
		}
	}
	if !agree {
		t.Fatal("equal fork salts disagree")
	}
	if !differ {
		t.Fatal("distinct fork salts never diverged over 256 keys")
	}
	// Forks share the parent's ledger.
	base.MarkRetry()
	same1.MarkRecovered(2)
	s := other.Stats()
	if s.Retries != 1 || s.Recovered != 2 {
		t.Fatalf("forked stats not shared: %+v", s)
	}
	if (*Injector)(nil).Fork(1) != nil {
		t.Fatal("Fork of nil is not nil")
	}
}

func TestStatsLedger(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{
		{Site: SiteMPISend, Kind: MsgDrop, Prob: 1},
		{Site: SiteOMPFor, Kind: ThreadStall, Prob: 1},
	}})
	in.Hit(SiteMPISend, 1)
	in.Hit(SiteMPISend, 2)
	in.Hit(SiteOMPFor, 1)
	in.MarkRecovered(3)
	in.MarkRetry()
	s := in.Stats()
	if s.Injected != 3 || s.ByKind["msg-drop"] != 2 || s.ByKind["thread-stall"] != 1 {
		t.Fatalf("injected ledger %+v", s)
	}
	if s.Recovered != 3 || s.Retries != 1 {
		t.Fatalf("recovery ledger %+v", s)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if _, ok := in.Hit(SiteMPISend, 1); ok {
		t.Fatal("nil injector fired")
	}
	in.MarkRecovered(1)
	in.MarkRetry()
	if s := in.Stats(); s.Injected != 0 || s.Recovered != 0 || s.Retries != 0 {
		t.Fatalf("nil stats %+v", s)
	}
}

func TestIsTransient(t *testing.T) {
	// Branch 1: the sentinel, bare or wrapped.
	if !IsTransient(ErrTransient) {
		t.Fatal("sentinel not transient")
	}
	if !IsTransient(fmt.Errorf("retry budget: %w", ErrTransient)) {
		t.Fatal("wrapped sentinel not transient")
	}
	inj := &Injected{Site: SiteOMPBarrier, Kind: ThreadPanic, Key: 7}
	if !IsTransient(inj) || !errors.Is(inj, ErrTransient) {
		t.Fatal("Injected does not unwrap to ErrTransient")
	}
	// Branch 2: a per-run deadline expiry is retryable too.
	if !IsTransient(context.DeadlineExceeded) {
		t.Fatal("deadline expiry not transient")
	}
	if !IsTransient(fmt.Errorf("run: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped deadline not transient")
	}
	// Neither branch: permanent failures and cancellation stay permanent.
	for _, err := range []error{nil, errors.New("boom"), context.Canceled} {
		if IsTransient(err) {
			t.Fatalf("%v classified transient", err)
		}
	}
}

func TestFaultMagnitudes(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{
		{Site: SiteOMPBarrier, Kind: ThreadStall, Prob: 1, Max: 0.001},
		{Site: SitePisimCore, Kind: CoreSlow, Prob: 1, Max: 0.5},
	}})
	for k := uint64(0); k < 100; k++ {
		f, _ := in.Hit(SiteOMPBarrier, k)
		if d := f.Duration(); d <= 0 || d.Seconds() > 0.001 {
			t.Fatalf("duration %v outside (0, 1ms]", d)
		}
		g, _ := in.Hit(SitePisimCore, k)
		if fac := g.Factor(); fac <= 1 || fac > 1.5 {
			t.Fatalf("factor %v outside (1, 1.5]", fac)
		}
	}
	// Defaults when Max is zero.
	d := Fault{Kind: ThreadStall, r: 1 << 62}.Duration()
	if d <= 0 || d.Seconds() > 500e-6 {
		t.Fatalf("default duration %v outside (0, 500µs]", d)
	}
	if fac := (Fault{Kind: CoreSlow, r: 1 << 62}).Factor(); fac <= 1 || fac > 2 {
		t.Fatalf("default factor %v outside (1, 2]", fac)
	}
}

func TestContextCarriage(t *testing.T) {
	in := mustNew(t, Plan{Rules: []Rule{{Site: SiteMPISend, Kind: MsgDrop, Prob: 1}}})
	ctx := NewContext(context.Background(), in)
	if FromContext(ctx) != in {
		t.Fatal("context round-trip lost the injector")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded an injector")
	}
}

func TestKindString(t *testing.T) {
	if MsgDrop.String() != "msg-drop" || RunFail.String() != "run-fail" {
		t.Fatal("kind names drifted")
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind rendering drifted")
	}
}

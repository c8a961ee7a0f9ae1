package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pblparallel/internal/fault"
)

// lossyPlan arms the full wire-fault mix at the Send boundary.
func lossyPlan(t *testing.T, seed int64, drop, dup, delay float64) *fault.Injector {
	t.Helper()
	in, err := fault.New(fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Site: fault.SiteMPISend, Kind: fault.MsgDrop, Prob: drop},
		{Site: fault.SiteMPISend, Kind: fault.MsgDup, Prob: dup},
		{Site: fault.SiteMPISend, Kind: fault.MsgDelay, Prob: delay, Max: 50e-6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ringOnce passes an incrementing token around the ring and returns
// rank 0's final value.
func ringOnce(n int, opts ...RunOption) (int, error) {
	final := 0
	err := Run(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		if c.Rank() == 0 {
			if err := c.Send(next, 0, 1); err != nil {
				return err
			}
			got, _, err := c.Recv(prev, 0)
			if err != nil {
				return err
			}
			final = got.(int)
			return nil
		}
		got, _, err := c.Recv(prev, 0)
		if err != nil {
			return err
		}
		return c.Send(next, 0, got.(int)+1)
	}, opts...)
	return final, err
}

// TestReliableRingSurvivesLossyLink is the resilience property test:
// for a drop rate well below 1, the ring completes with the same token
// value as the fault-free run, across many fault seeds and aggressive
// drop/dup/delay mixes.
func TestReliableRingSurvivesLossyLink(t *testing.T) {
	const n = 5
	clean, err := ringOnce(n)
	if err != nil {
		t.Fatal(err)
	}
	if clean != n {
		t.Fatalf("fault-free ring token %d, want %d", clean, n)
	}
	for seed := int64(0); seed < 20; seed++ {
		in := lossyPlan(t, seed, 0.5, 0.3, 0.2)
		got, err := ringOnce(n, WithFault(in))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != clean {
			t.Fatalf("seed %d: lossy ring token %d, fault-free %d", seed, got, clean)
		}
		s := in.Stats()
		if seed == 0 && s.Injected == 0 {
			t.Fatal("plan with 50% drop injected nothing")
		}
		if s.ByKind["msg-drop"] > 0 && s.Recovered == 0 {
			t.Fatalf("seed %d: drops injected but none recovered: %+v", seed, s)
		}
	}
}

// TestCollectivesSurviveLossyLink runs Scatter + Allreduce — the exact
// shapes the study practicum uses — over a dropping, duplicating wire
// and checks the reduction against the fault-free answer.
func TestCollectivesSurviveLossyLink(t *testing.T) {
	const size = 4
	data := make([]int, size*3)
	want := 0
	for i := range data {
		data[i] = i * i
		want += i * i
	}
	run := func(opts ...RunOption) (int, error) {
		total := 0
		err := Run(size, func(c *Comm) error {
			sum, err := scatterAllreduce(c, data)
			if c.Rank() == 0 {
				total = sum
			}
			return err
		}, opts...)
		return total, err
	}
	clean, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if clean != want {
		t.Fatalf("fault-free allreduce %d, want %d", clean, want)
	}
	for seed := int64(100); seed < 115; seed++ {
		in := lossyPlan(t, seed, 0.4, 0.25, 0.15)
		got, err := run(WithFault(in))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != clean {
			t.Fatalf("seed %d: lossy allreduce %d, fault-free %d", seed, got, clean)
		}
	}
}

// scatterAllreduce is the study practicum's MPI shape: scatter data
// from rank 0, sum each part locally, and allreduce the sums.
func scatterAllreduce(c *Comm, data []int) (int, error) {
	part, err := Scatter(c, 0, data)
	if err != nil {
		return 0, err
	}
	local := 0
	for _, v := range part {
		local += v
	}
	return Allreduce(c, local, func(a, b int) int { return a + b })
}

// TestLossyLedgerIsPureFunctionOfPlan: the fault ledger of a lossy
// Scatter + Allreduce depends on the plan alone. Two runs read the
// same Stats, every retry is one drop's resend, and every receiver
// takes each sequence number of each sender exactly once: the high-water
// mark reaches the sender's last seq, nothing waits unmatched, and what
// is left in the inbox is only duplicates.
func TestLossyLedgerIsPureFunctionOfPlan(t *testing.T) {
	const size = 4
	data := make([]int, size*3)
	for i := range data {
		data[i] = i
	}
	run := func() fault.StatsSnapshot {
		in := lossyPlan(t, 42, 0.4, 0.25, 0.15)
		sent := make([][]uint64, size) // sent[r][to]: r's last seq to rank to
		seen := make([][]uint64, size) // seen[r][from]: r's high-water mark for from
		err := Run(size, func(c *Comm) error {
			if _, err := scatterAllreduce(c, data); err != nil {
				return err
			}
			// After the barrier every Send, duplicates included, has
			// enqueued.
			c.Barrier()
			if len(c.pending) != 0 {
				return fmt.Errorf("%d messages left unmatched", len(c.pending))
			}
			for inbox := c.w.inboxes[c.Rank()]; len(inbox) > 0; {
				if m := <-inbox; m.seq > c.seen[m.from] {
					return fmt.Errorf("seq %d from rank %d never received", m.seq, m.from)
				}
			}
			sent[c.Rank()], seen[c.Rank()] = c.nextSeq, c.seen
			return nil
		}, WithFault(in))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < size; r++ {
			for from := 0; from < size; from++ {
				if seen[r][from] != sent[from][r] {
					t.Fatalf("rank %d saw seq %d from rank %d, which sent %d", r, seen[r][from], from, sent[from][r])
				}
			}
		}
		return in.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("one plan, two ledgers:\n%+v\n%+v", a, b)
	}
	if a.ByKind["msg-drop"] == 0 || a.ByKind["msg-dup"] == 0 {
		t.Fatalf("plan injected no drops or no duplicates: %+v", a)
	}
	if a.Retries != a.ByKind["msg-drop"] {
		t.Fatalf("retries %d, want one per drop (%d)", a.Retries, a.ByKind["msg-drop"])
	}
	if a.Recovered != a.Injected {
		t.Fatalf("recovered %d of %d injected faults", a.Recovered, a.Injected)
	}
}

// TestReliableDeliveryExhaustsAsTransient pins the failure mode: a
// wire that drops everything exhausts the constant resend budget and
// surfaces a transient error — the class the engine's retry layer
// re-executes.
func TestReliableDeliveryExhaustsAsTransient(t *testing.T) {
	in, err := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Site: fault.SiteMPISend, Kind: fault.MsgDrop, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, "doomed")
		}
		// Rank 1 never receives: the wire eats everything. It must not
		// block forever on Recv, so it just returns.
		return nil
	}, WithFault(in))
	if err == nil {
		t.Fatal("total loss delivered anyway")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("exhaustion error not transient: %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("error lost rank attribution: %v", err)
	}
	if s := in.Stats(); s.Retries != maxResends || s.ByKind["msg-drop"] != maxResends+1 {
		t.Fatalf("ledger %+v, want %d retries of %d drops", s, maxResends, maxResends+1)
	}
}

// TestReliableCleanWireIsTransparent: an armed wire whose plan never
// fires behaves exactly like the plain fabric (sequencing is pure
// overhead, not semantics), and both keep per-sender order.
func TestReliableCleanWireIsTransparent(t *testing.T) {
	quiet := lossyPlan(t, 3, 0, 0, 0)
	got, err := ringOnce(6, WithFault(quiet))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("ring token %d over clean armed wire", got)
	}
	if s := quiet.Stats(); s.Injected != 0 {
		t.Fatalf("zero-probability plan injected %d faults", s.Injected)
	}
	for _, opts := range [][]RunOption{nil, {WithFault(quiet)}} {
		if err := orderedPair(opts...); err != nil {
			t.Fatal(err)
		}
	}
}

// orderedPair sends 50 numbered messages from rank 0 to rank 1 and
// fails unless they arrive in order.
func orderedPair(opts ...RunOption) error {
	return Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			got, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if got != i {
				return fmt.Errorf("message %d arrived as %v", i, got)
			}
		}
		return nil
	}, opts...)
}

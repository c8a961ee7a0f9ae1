package mpi

import (
	"fmt"
	"time"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// maxResends bounds the re-draws of one dropped message: after the
// first attempt and this many resends all drop, Send gives up with a
// transient error.
const maxResends = 16

// RunOption configures one Run's world (fault injection, tracing). The
// zero-option call is byte-for-byte the historical path.
type RunOption func(*world)

// WithFault arms the world with a fault injector and sequenced
// delivery: every point-to-point message carries a per-(sender,
// receiver) sequence number, sends draw drop/delay/duplication faults
// at the wire boundary, keyed by (sender, receiver, sequence, attempt),
// and receivers discard duplicates. A drop is the only loss on this
// in-memory fabric and the sender draws it itself, so it resends at
// once and needs no acknowledgement; every fault decision, and with it
// the fault ledger, is a pure function of the plan. A nil
// injector is a no-op, so call sites can pass one unconditionally.
func WithFault(in *fault.Injector) RunOption {
	return func(w *world) { w.inj = in }
}

// WithTrace joins the world's spans (world, ranks, sends, receives,
// collectives, injected wire faults) to a request trace.
func WithTrace(tc obs.TraceContext) RunOption {
	return func(w *world) { w.tc = tc }
}

// sendArmed drives one message through the lossy wire. A dropped
// attempt is redrawn at once, up to maxResends times; a retry is a
// fresh draw, so a dropped message is not doomed to drop forever.
func (c *Comm) sendArmed(to, tag int, data any) error {
	c.nextSeq[to]++
	seq := c.nextSeq[to]
	m := message{from: c.rank, tag: tag, data: data, seq: seq}
	tr := obs.Default()
	for attempt := 0; ; attempt++ {
		f, hit := c.w.inj.Hit(fault.SiteMPISend,
			fault.Mix4(uint64(c.rank), uint64(to), seq, uint64(attempt)))
		switch {
		case hit && f.Kind == fault.MsgDrop:
			if tr != nil {
				tr.Span(obs.PIDMPI, c.lane(), "fault", "msg-drop").Trace(c.tc).
					Int("to", int64(to)).Int("seq", int64(seq)).Int("attempt", int64(attempt)).Emit()
			}
			if attempt == maxResends {
				return fmt.Errorf("mpi: rank %d: delivery to rank %d (tag %d, seq %d) failed after %d attempts: %w",
					c.rank, to, tag, seq, attempt+1, fault.ErrTransient)
			}
			c.w.inj.MarkRetry()
			continue
		case hit && f.Kind == fault.MsgDelay:
			d := f.Duration()
			if tr != nil {
				sp := tr.Span(obs.PIDMPI, c.lane(), "fault", "msg-delay").Trace(c.tc).
					Int("to", int64(to)).Int("seq", int64(seq))
				time.Sleep(d)
				sp.End()
			} else {
				time.Sleep(d)
			}
			c.w.inj.MarkRecovered(1)
		case hit && f.Kind == fault.MsgDup:
			if tr != nil {
				tr.Span(obs.PIDMPI, c.lane(), "fault", "msg-dup").Trace(c.tc).
					Int("to", int64(to)).Int("seq", int64(seq)).Emit()
			}
			c.w.inboxes[to] <- m
			c.w.inj.MarkRecovered(1)
		}
		// Every earlier attempt was a drop, and each is a recovered
		// fault now that the message lands.
		c.w.inj.MarkRecovered(attempt)
		c.w.inboxes[to] <- m
		return nil
	}
}

// Package mpi is a small message-passing runtime modeled on the MPI
// subset the paper plans to teach next ("we plan to extend the module to
// include writing code for multicore processors and distributed memory
// using Message Passing Interface (MPI)"): ranks with private state,
// matched point-to-point Send/Recv with tags, and the collectives the
// CSinParallel MPI module introduces — Barrier, Bcast, Reduce,
// Allreduce, Scatter, and Gather.
//
// Each rank runs as a goroutine with no shared variables; all
// communication goes through the communicator, which is the
// distributed-memory lesson the extension exists to teach.
package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"pblparallel/internal/fault"
	"pblparallel/internal/obs"
)

// worldSeq allocates trace lanes: each traced Run claims a block of
// size+1 lanes (one for the world span, one per rank) so concurrent
// worlds render on disjoint Perfetto tracks. Only bumped when a tracer
// is installed.
var worldSeq atomic.Uint32

// Runtime counters, cached from the process registry at init.
var (
	messagesSent = obs.Metrics().Counter("mpi_messages_sent_total",
		"Point-to-point messages sent (collectives included).")
	bytesSent = obs.Metrics().Counter("mpi_message_bytes_sent_total",
		"Estimated payload bytes of sent messages.")
	worldsRun = obs.Metrics().Counter("mpi_worlds_total",
		"MPI worlds launched via Run.")
)

// payloadBytes estimates a message payload's size for trace events and
// the byte counter: exact for the common scalar/slice types the
// patternlets exchange, element-size arithmetic via reflection for
// other slices, and the value's own size otherwise.
func payloadBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint64, float64, complex64:
		return 8
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	case []int, []int64, []uint64, []float64:
		return int64(reflect.ValueOf(x).Len()) * 8
	case []float32, []int32, []uint32:
		return int64(reflect.ValueOf(x).Len()) * 4
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		return int64(rv.Len()) * int64(rv.Type().Elem().Size())
	case reflect.Ptr, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return 8
	default:
		return int64(rv.Type().Size())
	}
}

// message is one point-to-point transfer. seq is non-zero only on an
// armed wire (WithFault), where it orders and dedups the (from,
// receiver) pair's traffic.
type message struct {
	from, tag int
	data      any
	seq       uint64
}

// world is the shared fabric of one Run.
type world struct {
	size     int
	inboxes  []chan message
	barrier  *centralBarrier
	laneBase uint32           // base of this world's trace-lane block (0 = untraced)
	tc       obs.TraceContext // request correlation handed in by WithTrace
	inj      *fault.Injector  // arms sequenced delivery (see reliable.go); nil on the default path
}

// Comm is one rank's communicator handle.
type Comm struct {
	w    *world
	rank int
	tc   obs.TraceContext // rank-span trace context; stamps per-rank spans
	// pending holds messages received ahead of a matching Recv.
	pending []message
	// nextSeq is the per-destination sequence counter and seen the
	// highest sequence received per sender (armed wire only).
	nextSeq, seen []uint64
}

// lane is the rank's trace lane within the world's block.
func (c *Comm) lane() uint32 { return c.w.laneBase + 1 + uint32(c.rank) }

// Rank returns the caller's rank (0-based).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// AnySource matches any sender in Recv, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches any tag in Recv, like MPI_ANY_TAG.
const AnyTag = -1

// internal tags used by the collectives; user tags must be >= 0.
const (
	tagBcast = -1000 - iota
	tagReduce
	tagScatter
	tagGather
	tagAllreduce
)

// Send delivers data to rank `to` with the given tag. Inboxes are
// buffered, so Send blocks only when the receiver is far behind.
func (c *Comm) Send(to, tag int, data any) error {
	if to < 0 || to >= c.w.size {
		return fmt.Errorf("mpi: send to rank %d of %d", to, c.w.size)
	}
	if tag < 0 && !isInternalTag(tag) {
		return fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	nb := payloadBytes(data)
	messagesSent.Inc()
	bytesSent.Add(nb)
	if tr := obs.Default(); tr != nil {
		tr.Span(obs.PIDMPI, c.lane(), "mpi", "send").Trace(c.tc).
			Int("to", int64(to)).Int("tag", int64(tag)).Int("bytes", nb).Emit()
	}
	if c.w.inj != nil {
		return c.sendArmed(to, tag, data)
	}
	c.w.inboxes[to] <- message{from: c.rank, tag: tag, data: data}
	return nil
}

func isInternalTag(tag int) bool {
	return tag <= tagBcast && tag >= tagAllreduce
}

// Recv blocks until a message matching (from, tag) arrives and returns
// its payload and actual source. Use AnySource/AnyTag as wildcards.
// Messages from the same sender are received in the order sent, and on
// an armed wire each exactly once.
func (c *Comm) Recv(from, tag int) (data any, source int, err error) {
	if from != AnySource && (from < 0 || from >= c.w.size) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", from, c.w.size)
	}
	match := func(m message) bool {
		return (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag)
	}
	// The whole receive — including any blocking wait — is one span on
	// the rank's lane, so the trace shows which ranks idle on messages.
	tr := obs.Default()
	sp := tr.Span(obs.PIDMPI, c.lane(), "mpi", "recv").Trace(c.tc).
		Int("from", int64(from)).Int("tag", int64(tag))
	deliver := func(m message) (any, int, error) {
		if tr != nil {
			sp.Int("source", int64(m.from)).Int("bytes", payloadBytes(m.data)).End()
		}
		return m.data, m.from, nil
	}
	for i, m := range c.pending {
		if match(m) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return deliver(m)
		}
	}
	for {
		m := <-c.w.inboxes[c.rank]
		if m.seq != 0 {
			// A sender enqueues its sequences in order, so a seq at or
			// below the high-water mark is an injected duplicate.
			if m.seq <= c.seen[m.from] {
				continue
			}
			c.seen[m.from] = m.seq
		}
		if match(m) {
			return deliver(m)
		}
		c.pending = append(c.pending, m)
	}
}

// Sendrecv performs a send and a receive concurrently, the idiom that
// avoids the pairwise-exchange deadlock the MPI module warns about.
func (c *Comm) Sendrecv(to, sendTag int, data any, from, recvTag int) (any, int, error) {
	errCh := make(chan error, 1)
	go func() { errCh <- c.Send(to, sendTag, data) }()
	got, src, err := c.Recv(from, recvTag)
	if err != nil {
		return nil, 0, err
	}
	if err := <-errCh; err != nil {
		return nil, 0, err
	}
	return got, src, nil
}

// Barrier blocks until every rank has entered it. When tracing, the
// wait is a span on the rank's lane (barrier skew made visible).
func (c *Comm) Barrier() {
	tr := obs.Default()
	if tr == nil {
		c.w.barrier.wait()
		return
	}
	sp := tr.Span(obs.PIDMPI, c.lane(), "mpi", "barrier").Trace(c.tc)
	c.w.barrier.wait()
	sp.End()
}

// centralBarrier is a reusable counting barrier.
type centralBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	phase   int
}

func newCentralBarrier(n int) *centralBarrier {
	b := &centralBarrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *centralBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase {
		b.cond.Wait()
	}
}

// RankError wraps a failure on one rank.
type RankError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Run launches size ranks, each executing body with its own
// communicator, and joins them. The first failing rank's error is
// returned (lowest rank wins); a panic on any rank is converted to an
// error on that rank. Options arm fault injection and tracing; with
// none, the fabric is the historical direct-channel path.
func Run(size int, body func(c *Comm) error, opts ...RunOption) error {
	if size < 1 {
		return fmt.Errorf("mpi: world size %d", size)
	}
	if body == nil {
		return fmt.Errorf("mpi: nil body")
	}
	w := &world{
		size:    size,
		inboxes: make([]chan message, size),
		barrier: newCentralBarrier(size),
	}
	for _, opt := range opts {
		opt(w)
	}
	for i := range w.inboxes {
		w.inboxes[i] = make(chan message, 1024)
	}
	worldsRun.Inc()
	tr := obs.Default()
	if tr != nil {
		w.laneBase = worldSeq.Add(uint32(size)+1) - uint32(size)
	}
	worldSpan := tr.Span(obs.PIDMPI, w.laneBase, "mpi", "world").Trace(w.tc).Int("size", int64(size))
	worldTC := worldSpan.TraceCtx()
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{w: w, rank: rank}
			if w.inj != nil {
				c.nextSeq = make([]uint64, size)
				c.seen = make([]uint64, size)
			}
			rsp := tr.Span(obs.PIDMPI, c.lane(), "mpi", "rank").Trace(worldTC).Int("rank", int64(rank))
			defer rsp.End()
			c.tc = rsp.TraceCtx()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", p)}
				}
			}()
			if err := body(c); err != nil {
				errs[rank] = &RankError{Rank: rank, Err: err}
			}
		}(r)
	}
	wg.Wait()
	worldSpan.End()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package kv

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// call is one client request in flight — a multiget, a single-key
// operation, or one server's share of a multiset — held as a fixed row
// of slots, one per wire operation. The connection read loops fill the
// slots directly and the caller is woken once, when the last slot
// completes; there is no goroutine per server group and no channel per
// operation.
//
// Each slot completes exactly once, by whoever removes its entry from
// a connection's pending map first (clientConn.take): the read loop on
// a response, shutdown on a torn connection, the dispatcher on a write
// failure, cancel on context expiry. A slot that was never registered
// (its server could not be reached) or that sits in the read-retry
// ladder is owned by the goroutine handling it. Completion is the
// owner's last touch of the call, so once the countdown reaches zero
// nothing else refers to it and the caller may recycle it.
type call struct {
	c   *Client
	ctx context.Context
	// routed marks selector-routed reads: a completing slot retires its
	// dispatch in the selector, and a transport failure sends it down
	// the read-retry ladder instead of completing it.
	routed bool

	slots []slot
	// Per-request scratch, reused across calls: ops points at each
	// slot's op for core.Tag, order groups slot indices by server,
	// reqs are the batch frames' requests in that order, route holds
	// one key's replica candidates, traces the untraced request's
	// timelines.
	ops    []*sched.Op
	order  []int
	reqs   []wire.Request
	route  []sched.ServerID
	traces []OpTrace

	left atomic.Int32  // slots not yet completed
	done chan struct{} // capacity 1: the completion that empties left sends once

	// mu orders a retry's re-registration against cancel's scan of the
	// slots' registrations, so a slot cannot slip into a pending map
	// after the scan without seeing the context's expiry.
	mu sync.Mutex
}

// slot is one wire operation of a call: its scheduling op and where it
// is registered, then its outcome.
type slot struct {
	op   sched.Op
	typ  wire.OpType
	sent int // request value bytes: the size a write's service teaches

	cc       *clientConn // connection and wire ID of the latest dispatch
	id       uint64
	score    time.Duration // selector score at first routing (reads)
	start    time.Duration // first dispatch, client clock
	end      time.Duration // completion, client clock
	attempts int

	status  wire.Status
	value   []byte // owned copy of the response value
	version uint64
	tm      wire.Timing
	found   bool  // a read hit, set by resolve
	err     error // transport failure, cancellation, or (reads) the mapped status
}

// maxPooledCall bounds the slot count a recycled call keeps, so one huge
// multiget does not pin its scratch in the pool.
const maxPooledCall = 1024

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// newCall takes a pooled call sized for n operations under ctx.
func (c *Client) newCall(ctx context.Context, n int, routed bool) *call {
	m := callPool.Get().(*call)
	m.c, m.ctx, m.routed = c, ctx, routed
	if cap(m.slots) < n {
		m.slots = make([]slot, n)
		m.ops = make([]*sched.Op, n)
	}
	m.slots, m.ops = m.slots[:n], m.ops[:n]
	for i := range m.slots {
		m.slots[i].attempts = 1
		m.ops[i] = &m.slots[i].op
	}
	m.left.Store(int32(n))
	return m
}

// release returns a completed call to the pool, dropping every
// reference it holds (values now belong to the caller).
func (m *call) release() {
	clear(m.slots)
	clear(m.reqs[:cap(m.reqs)])
	clear(m.traces[:cap(m.traces)])
	m.reqs, m.traces, m.order = m.reqs[:0], m.traces[:0], m.order[:0]
	m.c, m.ctx = nil, nil
	if cap(m.slots) <= maxPooledCall {
		callPool.Put(m)
	}
}

// complete counts one slot done and wakes the caller on the last. It is
// the completing goroutine's final touch of the call.
func (m *call) complete() {
	if m.left.Add(-1) == 0 {
		m.done <- struct{}{}
	}
}

// wait blocks until every slot completed. When the context ends first,
// the slots still registered are taken back and failed with its error;
// slots the read loop or a retry already owns finish promptly.
func (m *call) wait() {
	select {
	case <-m.done:
		return
	case <-m.ctx.Done():
	}
	m.cancel()
	<-m.done
}

// cancel fails every slot it can take back from a pending map with the
// context's error.
func (m *call) cancel() {
	err := m.ctx.Err()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.slots {
		if s := &m.slots[i]; s.cc != nil && s.cc.take(s.id) {
			m.fail(i, err)
		}
	}
}

// deliver completes slot i with a response; the read loop calls it
// after taking the slot's pending entry. The value is copied out of the
// decoder's scratch into a pooled buffer, and the response teaches the
// estimator and retires the read in the selector.
func (m *call) deliver(i int, resp *wire.Response) {
	c, s := m.c, &m.slots[i]
	s.status, s.version, s.tm = resp.Status, resp.Version, resp.Timing
	if len(resp.Value) > 0 {
		s.value = getValueBuf(len(resp.Value))
		copy(s.value, resp.Value)
	}
	size := s.sent
	if s.typ == wire.OpGet {
		size = len(s.value)
	}
	c.observeService(s.op.Server, s.op.Demand, s.tm, s.status, int64(size))
	if m.routed {
		c.retireRead(s.op.Server)
	}
	s.end = c.now()
	m.complete()
}

// fail resolves slot i's current dispatch with a transport error or the
// context's. A routed read with retries left continues on the retry
// ladder instead of completing.
func (m *call) fail(i int, err error) {
	c, s := m.c, &m.slots[i]
	if m.routed {
		c.retireRead(s.op.Server)
		if s.attempts <= c.cfg.ReadRetries && errors.Is(err, ErrUnavailable) &&
			!errors.Is(err, ErrClientClosed) && m.ctx.Err() == nil {
			go m.retry(i, err)
			return
		}
	}
	s.err = err
	s.end = c.now()
	m.complete()
}

// retry re-dispatches slot i after jittered backoff, re-routed around
// servers marked down since (the failed one is), with fresh tags. A
// read that succeeds only here schedules read-repair (see readKeys).
func (m *call) retry(i int, lastErr error) {
	c, s := m.c, &m.slots[i]
	if c.retrySleep(m.ctx, s.attempts-1) != nil {
		s.err = lastErr
		s.end = c.now()
		m.complete()
		return
	}
	c.cm.noteRetry()
	now := c.now()
	var cands [8]sched.ServerID
	s.op.Server = c.routeRead(c.place.AppendFor(cands[:0], s.op.Key), s.op.Demand, now)
	core.Tag(m.ops[i:i+1], c.taggingEst(), now)
	s.attempts++
	idx, reqs := [1]int{i}, [1]wire.Request{{Type: wire.OpGet, Key: s.op.Key}}
	m.dispatch(s.op.Server, idx[:], reqs[:])
}

// dispatchByServer sends every slot as one batch frame per destination
// server (split only past the frame limits), req building slot i's
// request. Slots keep their relative order within a server's frame.
// Only the caller of wait may use it, before waiting.
func (m *call) dispatchByServer(req func(i int) wire.Request) {
	n := len(m.slots)
	m.order = m.order[:0]
	for i := range n {
		m.order = append(m.order, i)
	}
	slices.SortStableFunc(m.order, func(a, b int) int {
		return cmp.Compare(m.slots[a].op.Server, m.slots[b].op.Server)
	})
	m.reqs = slices.Grow(m.reqs[:0], n)[:n]
	for j, i := range m.order {
		m.reqs[j] = req(i)
	}
	// A run is delimited by reading only slots not yet sent: a sent slot
	// may already be re-routed by a retry.
	for lo := 0; lo < n; {
		server := m.slots[m.order[lo]].op.Server
		hi := lo + 1
		for hi < n && m.slots[m.order[hi]].op.Server == server {
			hi++
		}
		start := m.c.now()
		for _, i := range m.order[lo:hi] {
			m.slots[i].start = start
		}
		m.dispatch(server, m.order[lo:hi], m.reqs[lo:hi])
		lo = hi
	}
}

// dispatch sends the slots idx, all bound for server, as batch frames;
// reqs are their requests, in the same order, without IDs or tags yet.
// Every failure before the requests are registered completes the slots
// here; from then on a slot belongs to whoever takes its pending entry,
// and dispatch refers to it by request ID only.
func (m *call) dispatch(server sched.ServerID, idx []int, reqs []wire.Request) {
	c := m.c
	cc, err := c.conn(server)
	if err != nil {
		for _, i := range idx {
			m.fail(i, err)
		}
		return
	}
	dl := deadlineBudget(m.ctx)
	for j, i := range idx {
		reqs[j].ID = c.nextID.Add(1)
		reqs[j].Tags = wireTags(&m.slots[i].op)
		reqs[j].DeadlineNanos = dl
	}
	m.mu.Lock()
	// Checked under mu: cancel may already have scanned the slots.
	registered := m.ctx.Err() == nil
	if registered {
		for j, i := range idx {
			m.slots[i].cc, m.slots[i].id = cc, reqs[j].ID
		}
		registered = cc.register(m, idx, reqs)
	}
	m.mu.Unlock()
	if !registered {
		cause := m.ctx.Err()
		for _, i := range idx {
			if err = cause; err == nil {
				err = cc.lost(m.slots[i].op.Key)
			}
			m.fail(i, err)
		}
		return
	}
	if werr := c.writeChunked(cc, reqs); werr != nil {
		c.noteServerFailure(server)
		err := fmt.Errorf("%w: send to server %d: %w", ErrUnavailable, server, werr)
		for j, i := range idx {
			if cc.take(reqs[j].ID) {
				m.fail(i, err)
			}
		}
	}
}

// resolve maps a completed read's outcome to found or failed,
// recycling the value buffer of anything but a hit.
func (s *slot) resolve() {
	if s.err == nil {
		s.err = s.statusErr()
	}
	if s.found = s.err == nil && s.status == wire.StatusOK; !s.found {
		putValueBuf(s.value)
		s.value = nil
	}
}

// statusErr maps a response status to the operation's failure: a
// deadline shed, or a server error — for a read, any status but OK and
// NotFound. Other statuses are the caller's to interpret.
func (s *slot) statusErr() error {
	switch {
	case s.status == wire.StatusDeadlineExceeded:
		return fmt.Errorf("kv: server %d shed %q past its deadline: %w",
			s.op.Server, s.op.Key, context.DeadlineExceeded)
	case s.status == wire.StatusError,
		s.typ == wire.OpGet && s.status != wire.StatusOK && s.status != wire.StatusNotFound:
		return fmt.Errorf("kv: server error for key %q", s.op.Key)
	}
	return nil
}

// trace builds the request's per-op timelines, offsets from reqStart.
// They land in the call's scratch unless the trace ring keeps them.
func (m *call) trace(reqStart time.Duration) []OpTrace {
	n := len(m.slots)
	var out []OpTrace
	if m.c.traces != nil {
		out = make([]OpTrace, n)
	} else {
		m.traces = slices.Grow(m.traces[:0], n)[:n]
		out = m.traces
	}
	for i := range m.slots {
		s := &m.slots[i]
		out[i] = OpTrace{
			Index:          i,
			Key:            s.op.Key,
			Server:         s.op.Server,
			Replicas:       m.c.cfg.Replicas,
			Attempts:       s.attempts,
			Start:          s.start - reqStart,
			End:            s.end - reqStart,
			ExpectedFinish: s.op.Tags.ExpectedFinish - reqStart,
			Score:          s.score,
			Wait:           time.Duration(s.tm.WaitNanos),
			Service:        time.Duration(s.tm.ServiceNanos),
			Class:          sched.Class(s.tm.SchedClass).String(),
			Bytes:          len(s.value),
			Found:          s.found,
		}
		if s.err != nil {
			out[i].Err = s.err.Error()
		}
	}
	return out
}

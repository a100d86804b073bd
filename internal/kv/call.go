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
	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// call is one client request in flight — a multiget, a single-key
// operation, one server's share of a multiset, or one replicated
// operation on a key's holders — held as a fixed row of slots, one per
// wire operation. The connection read loops fill the slots directly and
// the caller is woken once; there is no goroutine per server group or
// per holder and no channel per operation.
//
// A plain call wakes its caller when the last slot completes. A
// threshold call (need > 0) has one slot per holder of one key and
// wakes its caller once need slots answered definitively, or as soon as
// so many failed that need can no longer be met; the slots past that
// point finish on the read loops.
//
// Each slot completes exactly once, by whoever removes its entry from
// a connection's pending map first (clientConn.take): the read loop on
// a response, shutdown on a torn connection, the dispatcher on a write
// failure, cancel on context expiry or when a drain deadline passes. A
// slot that was never registered (its server could not be reached) or
// that sits in the read-retry ladder is owned by the goroutine handling
// it. Completion is the owner's last touch of the slot. The call itself
// is held by the caller, by every dispatched slot not yet completed and
// by an armed drain timer; the last of them to let go releases it.
type call struct {
	c   *Client
	ctx context.Context
	// routed marks selector-routed reads: a completing slot retires its
	// dispatch in the selector, and a transport failure sends it down
	// the read-retry ladder instead of completing it.
	routed bool
	// need is a threshold call's wake threshold (0 for a plain call);
	// req is the request every holder gets.
	need int32
	req  wire.Request
	// detached marks a threshold write whose stragglers outlive the
	// caller: its requests carry the drain bound as their deadline, and
	// the caller's context wakes the caller without taking slots back.
	detached bool

	slots []slot
	// Per-request scratch, reused across calls: ops points at each
	// slot's op for core.Tag, order groups slot indices by server,
	// reqs are the batch frames' requests in that order, route holds
	// one key's replica candidates and scores their ranking, traces the
	// untraced request's timelines, reads the holders' answers to a
	// replicated read.
	ops    []*sched.Op
	order  []int
	reqs   []wire.Request
	route  []sched.ServerID
	scores []replica.Score
	traces []OpTrace
	reads  []replica.ReadResult

	// left counts the completions until the wake (a threshold call
	// counts definitive answers only); spare counts the failed or
	// untried holders that make a threshold unreachable. Together they
	// cover one more than the slots, so exactly one of them empties.
	left  atomic.Int32
	spare atomic.Int32
	next  atomic.Int32  // a threshold read's first holder not yet tried
	refs  atomic.Int32  // the caller, dispatched slots not yet completed, the drain timer
	done  chan struct{} // capacity 1: the wake, sent once
	drain atomic.Pointer[time.Timer]

	// mu orders a re-dispatch's registration against cancel's scan of
	// the slots' registrations, so a slot cannot slip into a pending map
	// after the scan without seeing the cancellation.
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
	found   bool  // answered OK: a read hit, a delete that found the key
	err     error // transport failure, cancellation, or the status's failure

	fin atomic.Bool // completed: a threshold call's caller reads only these slots
}

// maxPooledCall bounds the slot count a recycled call keeps, so one huge
// multiget does not pin its scratch in the pool.
const maxPooledCall = 1024

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// newCall takes a pooled plain call sized for n operations under ctx.
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
	m.need, m.detached = 0, false
	m.left.Store(int32(n))
	m.refs.Store(int32(n) + 1)
	return m
}

// holderCall sends req to its key's replica holders as one call, a
// slot per holder, and waits. need > 0 makes it a threshold call: the
// caller wakes at need definitive answers (a write's acks, a read's
// found or not-found) or once need is out of reach. A threshold read
// asks only the need best-ranked holders, and an untried one only in
// place of a holder lost to a transport failure; anything else asks
// every holder; a write that waits for fewer is detached. The caller
// reads the finished slots, then calls finish.
func (c *Client) holderCall(ctx context.Context, req wire.Request, need int) *call {
	now := c.now()
	n := c.place.Factor()
	m := c.newCall(ctx, n, false)
	m.route = c.place.AppendFor(m.route[:0], req.Key)
	sent := n
	if need > 0 && req.Type == wire.OpGet {
		demand, _ := c.demandFor(req.Type, req.Key, 0)
		m.scores = c.sel.AppendScores(m.scores[:0], m.route, demand, now)
		for i, sc := range m.scores {
			m.route[i] = sc.Server
		}
		sent = need
	}
	m.detached = need > 0 && need < n && req.Type != wire.OpGet
	for i, server := range m.route {
		m.prepare(i, server, &req, now)
	}
	m.req = req
	m.refs.Store(int32(sent) + 1)
	m.next.Store(int32(sent))
	if need > 0 {
		m.need = int32(need)
		m.left.Store(int32(need))
		m.spare.Store(int32(n - need + 1))
	}
	m.dispatchByServer(sent, func(int) wire.Request { return req })
	m.wait()
	return m
}

// prepare fills slot i with req's operation on server and tags it
// alone (fanout 1), as every single-key op and every write is tagged.
func (m *call) prepare(i int, server sched.ServerID, req *wire.Request, now time.Duration) {
	s := &m.slots[i]
	demand, size := m.c.demandFor(req.Type, req.Key, len(req.Value))
	s.op = sched.Op{Server: server, Key: req.Key, Demand: demand}
	s.op.Tags.SizeBytes = size
	s.typ, s.sent = req.Type, len(req.Value)
	core.Tag(m.ops[i:i+1], m.c.taggingEst(), now)
}

// finish is the caller's last touch of the call. Slots still in flight
// — a threshold call's stragglers — complete on the read loops; a drain
// timer fails any that never answer, Client.Close waits for them, and
// the last to complete releases the call.
func (m *call) finish() {
	if m.need > 0 && m.refs.Load() > 1 {
		c := m.c
		c.repairMu.Lock()
		if !c.repairClosed {
			c.repairWG.Add(1)
			m.refs.Add(1)
			m.drain.Store(time.AfterFunc(c.backgroundTimeout(), m.expire))
		}
		c.repairMu.Unlock()
	}
	m.unref()
}

// expire is the drain timer: it fails the stragglers still registered
// and drops the timer's reference.
func (m *call) expire() {
	m.cancel(fmt.Errorf("kv: no answer before the drain deadline: %w", context.DeadlineExceeded))
	m.unref()
}

// unref drops one reference; the last releases the call. When only one
// is left it may be the drain timer's, which stopping drops.
func (m *call) unref() {
	switch m.refs.Add(-1) {
	case 0:
		m.release()
	case 1:
		if t := m.drain.Load(); t != nil && t.Stop() {
			m.unref()
		}
	}
}

// release returns a finished call to the pool, dropping every
// reference it holds; values the caller did not take go back to the
// value freelist. A detached call's caller may have left before the
// wake, which is then emptied here.
func (m *call) release() {
	if m.drain.Swap(nil) != nil {
		m.c.repairWG.Done()
	}
	select {
	case <-m.done:
	default:
	}
	for i := range m.slots {
		putValueBuf(m.slots[i].value)
	}
	clear(m.slots)
	clear(m.reqs[:cap(m.reqs)])
	clear(m.traces[:cap(m.traces)])
	clear(m.reads[:cap(m.reads)])
	m.reqs, m.traces, m.order, m.reads = m.reqs[:0], m.traces[:0], m.order[:0], m.reads[:0]
	m.scores = m.scores[:0]
	m.req = wire.Request{}
	m.c, m.ctx = nil, nil
	if cap(m.slots) <= maxPooledCall {
		callPool.Put(m)
	}
}

// complete finishes slot i, whose response or error is set, folding a
// failing status into err, and drops its reference. A threshold call
// counts a definitive answer against left, and a failure plus the
// untried holders it gives up (see failover) against spare; either
// emptying wakes the caller.
func (m *call) complete(i int) {
	s := &m.slots[i]
	if s.err == nil {
		s.err = s.statusErr()
	}
	s.found = s.err == nil && s.status == wire.StatusOK
	s.fin.Store(true)
	count, k := &m.left, int32(1)
	if m.need > 0 && s.err != nil {
		count, k = &m.spare, 1+m.failover(s.err)
	}
	if v := count.Add(-k); v <= 0 && v+k > 0 {
		m.done <- struct{}{}
	}
	m.unref()
}

// wait blocks until the caller's wake. When the context ends first,
// the slots still registered are taken back and failed with its error;
// slots the read loop or a retry already owns finish promptly. A
// detached call returns at once instead and leaves its slots to drain.
func (m *call) wait() {
	select {
	case <-m.done:
		return
	case <-m.ctx.Done():
	}
	if m.detached {
		return
	}
	m.cancel(m.ctx.Err())
	<-m.done
}

// cancel fails every slot it can take back from a pending map with err.
func (m *call) cancel(err error) {
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
	m.complete(i)
}

// fail resolves slot i's current dispatch with a transport error or the
// context's. A routed read with retries left continues on the retry
// ladder instead of completing; a threshold read fails over.
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
	m.complete(i)
}

// failover handles a failed slot of a threshold call. A transport
// failure, while the caller still waits, is replaced by the best-ranked
// holder not yet tried. Any other failure — a shed or server error
// included — gives up on the untried holders; it returns how many that
// was. A write tries every holder at once, so it has none.
func (m *call) failover(err error) int32 {
	n := int32(len(m.slots))
	if m.left.Load() > 0 && m.spare.Load() > 0 &&
		errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrClientClosed) {
		if j := m.next.Add(1) - 1; j < n {
			m.refs.Add(1)
			m.slots[j].start = m.c.now()
			m.dispatchOne(int(j), m.req)
			return 0
		}
	}
	if tried := m.next.Swap(n); tried < n {
		return n - tried
	}
	return 0
}

// retry re-dispatches slot i after jittered backoff, re-routed around
// servers marked down since (the failed one is), with fresh tags. A
// read that succeeds only here schedules read-repair (see readKeys).
func (m *call) retry(i int, lastErr error) {
	c, s := m.c, &m.slots[i]
	if c.retrySleep(m.ctx, s.attempts-1) != nil {
		s.err = lastErr
		s.end = c.now()
		m.complete(i)
		return
	}
	c.cm.noteRetry()
	now := c.now()
	var cands [8]sched.ServerID
	s.op.Server = c.routeRead(c.place.AppendFor(cands[:0], s.op.Key), s.op.Demand, now)
	core.Tag(m.ops[i:i+1], c.taggingEst(), now)
	s.attempts++
	m.dispatchOne(i, wire.Request{Type: wire.OpGet, Key: s.op.Key})
}

// dispatchOne sends slot i alone, as a re-dispatch does.
func (m *call) dispatchOne(i int, req wire.Request) {
	idx, reqs := [1]int{i}, [1]wire.Request{req}
	m.dispatch(m.slots[i].op.Server, idx[:], reqs[:])
}

// dispatchByServer sends the first n slots as one batch frame per
// destination server (split only past the frame limits), req building
// slot i's request. Slots keep their relative order within a server's
// frame. Only the caller of wait may use it, before waiting.
func (m *call) dispatchByServer(n int, req func(i int) wire.Request) {
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
	if m.detached {
		dl = int64(c.backgroundTimeout())
	}
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

// readResult is a completed read slot as the replica planner sees it.
func (s *slot) readResult() replica.ReadResult {
	return replica.ReadResult{
		Server: s.op.Server, Value: s.value, Version: replica.Version(s.version),
		Found: s.found, Err: s.err,
	}
}

// answers gathers a woken threshold call's finished slots: each
// definitive answer into reads, and the first failure.
func (m *call) answers() (firstErr error) {
	for i := range m.slots {
		switch s := &m.slots[i]; {
		case !s.fin.Load():
		case s.err != nil:
			if firstErr == nil {
				firstErr = s.err
			}
		default:
			m.reads = append(m.reads, s.readResult())
		}
	}
	return firstErr
}

// take hands the slot's value to the caller, who then owns it.
func (s *slot) take() []byte {
	v := s.value
	s.value = nil
	return v
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

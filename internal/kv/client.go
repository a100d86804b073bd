package kv

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/topology"
	"github.com/daskv/daskv/internal/wire"
)

// Errors returned by the client.
var (
	ErrNotFound     = errors.New("kv: key not found")
	ErrClientClosed = errors.New("kv: client closed")
	// ErrUnavailable classifies transport-level failures — failed
	// dials, torn connections, redial backoff — the class the client
	// retries for idempotent reads.
	ErrUnavailable = errors.New("kv: server unavailable")
)

// PartialError reports a degraded multiget: the result map holds every
// key that completed; Errs maps each failed key to its cause. It
// unwraps to the per-key causes, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, ErrUnavailable) answer
// "did anything time out / did a server die" directly.
type PartialError struct {
	Errs map[string]error
}

// Error summarizes the failure; per-key detail is in Errs.
func (e *PartialError) Error() string {
	keys := make([]string, 0, len(e.Errs))
	for k := range e.Errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 1 {
		return fmt.Sprintf("kv: degraded multiget: key %q: %v", keys[0], e.Errs[keys[0]])
	}
	return fmt.Sprintf("kv: degraded multiget: %d keys failed (first %q: %v)",
		len(keys), keys[0], e.Errs[keys[0]])
}

// Unwrap exposes the per-key causes to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		errs = append(errs, err)
	}
	return errs
}

// DemandModel estimates an operation's service demand client-side, used
// for scheduling tags. It should approximate the server's CostModel.
type DemandModel func(op wire.OpType, keyLen, valueLen int) time.Duration

// ReadPolicy selects which replica serves a read when Replicas > 1.
// Each maps onto a replica.Selector policy; the simulator evaluates the
// same selection code.
type ReadPolicy int

// Read-routing strategies.
const (
	// PrimaryRead reads the ring primary, stepping past holders the
	// estimator has quarantined as down.
	PrimaryRead ReadPolicy = iota
	// FastestRead reads the replica with the earliest estimated finish
	// per the client's adaptive view, with Tars-style in-flight
	// compensation (falls back to primary order when tagging is
	// static).
	FastestRead
	// RoundRobinRead rotates reads over the replica set.
	RoundRobinRead
	// LeastOutstandingRead reads the replica with the fewest of this
	// client's requests in flight.
	LeastOutstandingRead
	// RandomRead spreads reads uniformly over the replica set.
	RandomRead
)

// selectorPolicy maps the client's read policy onto the replica
// package's selector, honoring the adaptive/static tagging mode.
func (cfg ClientConfig) selectorPolicy() replica.Policy {
	switch cfg.ReadFrom {
	case FastestRead:
		if cfg.Adaptive {
			return replica.Adaptive
		}
		return replica.Primary
	case RoundRobinRead:
		return replica.RoundRobin
	case LeastOutstandingRead:
		return replica.LeastOutstanding
	case RandomRead:
		return replica.Random
	default:
		return replica.Primary
	}
}

// ClientConfig configures a cluster client.
type ClientConfig struct {
	// Servers maps ring identities to dial addresses.
	Servers map[sched.ServerID]string
	// Vnodes per server on the ring (topology.DefaultVnodes if 0).
	Vnodes int
	// Adaptive enables DAS tagging from piggybacked feedback
	// (static demand tags otherwise).
	Adaptive bool
	// Estimator configures the adaptive view (defaults if zero).
	Estimator core.EstimatorConfig
	// Demand estimates operation demands (a small constant if nil).
	Demand DemandModel
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// Replicas is how many servers hold each key (default 1). Writes
	// fan out synchronously to every replica holder stamped with one
	// last-writer-wins version; reads go to one holder per ReadFrom and
	// fail over to siblings on transport errors (see ReadRetries).
	// Failover reads trigger asynchronous read-repair so replicas that
	// missed a write converge (disable with NoReadRepair).
	Replicas int
	// ReadFrom picks the serving replica for reads (default primary).
	ReadFrom ReadPolicy
	// DefaultConsistency is the level applied when an operation is
	// issued without an explicit one (Get/Put/Delete, or a *Level call
	// passing wire.ConsistencyDefault). Zero keeps the legacy
	// pre-cluster semantics: writes fan out to every holder and wait
	// for all, reads consult one selector-chosen holder.
	DefaultConsistency wire.Consistency
	// NoReadRepair disables the automatic read-repair issued after a
	// read had to fail over to a sibling replica. Explicit Repair calls
	// still work.
	NoReadRepair bool
	// ReconnectBackoff is the minimum gap between redial attempts to a
	// dead server (default 500ms). Operations targeting a dead server
	// inside the backoff window fail fast.
	ReconnectBackoff time.Duration
	// RequestTimeout is the default per-request deadline applied when a
	// caller's context carries none (0 = none). The remaining budget is
	// forwarded on the wire so servers shed operations that can no
	// longer meet it.
	RequestTimeout time.Duration
	// ReadRetries is how many extra attempts an idempotent read (Get /
	// MGet operation) gets after a transport failure, each preceded by
	// jittered exponential backoff and re-routed around servers marked
	// down (default 0 = fail on first error). Writes are never retried.
	ReadRetries int
	// RetryBackoff is the base of the read-retry backoff: attempt n
	// sleeps RetryBackoff * 2^n, jittered uniformly in [0.5x, 1.5x)
	// (default 5ms when ReadRetries > 0).
	RetryBackoff time.Duration
	// Seed drives client-side randomness (retry jitter); 0 derives a
	// seed from the clock. Fix it for reproducible chaos tests.
	Seed uint64
	// Dial, when set, replaces net.DialTimeout for server connections —
	// the hook fault injection uses to corrupt or stall client-side
	// traffic in tests.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// TraceDepth is how many recent multiget traces the client retains
	// for Client.Traces and kvctl's `trace` subcommand (0 = the
	// default of 64; negative disables tracing). Each retained trace
	// costs one OpTrace per operation.
	TraceDepth int
	// MaxBatchOps caps how many operations ride in one batch frame
	// (default DefaultMaxBatchOps, hard-capped at wire.MaxBatchOps).
	// Larger per-server groups split into several frames.
	MaxBatchOps int
	// WriteFanoutLimit bounds how many per-server write batches MSet
	// keeps in flight concurrently (default 2× the server count). It is
	// the replacement for the old goroutine-per-key fan-out: a large
	// multiset now costs O(servers) goroutines, never O(keys).
	WriteFanoutLimit int
	// SizeHint predicts a read's payload size in bytes (0 = unknown).
	// When set, the expected size rides the wire as Tags.SizeHintBytes —
	// what lets a size-class server keep a large get out of its
	// small-op pool before the store has looked the key up — and, under
	// Adaptive tagging, feeds the estimator's learned size model so the
	// op's demand tag reflects its payload instead of the static Demand
	// heuristic. Writes need no hint; their value length is the size.
	SizeHint func(op wire.OpType, key string) int
}

// DefaultMaxBatchOps is the batch frame width when MaxBatchOps is 0.
const DefaultMaxBatchOps = 512

// maxBatchBytes soft-bounds one batch frame's payload so multisets of
// large values split well below the 16 MiB wire frame limit.
const maxBatchBytes = 4 << 20

// reqOverhead approximates one encoded operation's fixed framing cost,
// for the byte-aware batch splitting.
const reqOverhead = 96

// batchLimit returns the effective per-frame operation cap.
func (cfg ClientConfig) batchLimit() int {
	n := cfg.MaxBatchOps
	if n <= 0 {
		n = DefaultMaxBatchOps
	}
	if n > wire.MaxBatchOps {
		n = wire.MaxBatchOps
	}
	return n
}

// writeLimit returns the effective concurrent write-batch cap.
func (cfg ClientConfig) writeLimit() int {
	if cfg.WriteFanoutLimit > 0 {
		return cfg.WriteFanoutLimit
	}
	return 2 * len(cfg.Servers)
}

// DefaultTraceDepth is the trace ring size when TraceDepth is 0.
const DefaultTraceDepth = 64

// Client is a partition-aware key-value client: single-key operations
// plus the multiget that the scheduling work is all about.
type Client struct {
	cfg    ClientConfig
	ring   *topology.Ring
	est    *core.Estimator
	place  *replica.Placement
	sel    *replica.Selector
	vclock *replica.Clock
	start  time.Time
	traces *traceRing
	cm     *clientMetrics

	mu       sync.Mutex
	conns    map[sched.ServerID]*clientConn
	redialAt map[sched.ServerID]time.Time
	closed   bool

	rngMu sync.Mutex
	rng   *rand.Rand

	repairMu     sync.Mutex
	repairing    map[string]bool
	repairClosed bool
	repairWG     sync.WaitGroup

	nextID atomic.Uint64
}

// defaultDemand is the fallback client-side demand estimate.
func defaultDemand(wire.OpType, int, int) time.Duration { return 100 * time.Microsecond }

// NewClient connects to every server in cfg.Servers.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("kv: client needs at least one server")
	}
	if cfg.Demand == nil {
		cfg.Demand = defaultDemand
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if (cfg.Estimator == core.EstimatorConfig{}) {
		cfg.Estimator = core.DefaultEstimatorConfig()
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas < 0 || cfg.Replicas > len(cfg.Servers) {
		return nil, fmt.Errorf("kv: replicas %d must be within [1, %d servers]",
			cfg.Replicas, len(cfg.Servers))
	}
	if cfg.ReadFrom < PrimaryRead || cfg.ReadFrom > RandomRead {
		return nil, fmt.Errorf("kv: unknown read policy %d", cfg.ReadFrom)
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 500 * time.Millisecond
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("kv: negative request timeout %v", cfg.RequestTimeout)
	}
	if cfg.ReadRetries < 0 {
		return nil, fmt.Errorf("kv: negative read retries %d", cfg.ReadRetries)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.DefaultConsistency > wire.ConsistencyAll {
		return nil, fmt.Errorf("kv: unknown consistency level %d", cfg.DefaultConsistency)
	}
	if cfg.MaxBatchOps < 0 {
		return nil, fmt.Errorf("kv: negative batch limit %d", cfg.MaxBatchOps)
	}
	if cfg.WriteFanoutLimit < 0 {
		return nil, fmt.Errorf("kv: negative write fan-out limit %d", cfg.WriteFanoutLimit)
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	ids := make([]sched.ServerID, 0, len(cfg.Servers))
	for id := range cfg.Servers {
		ids = append(ids, id)
	}
	ring, err := topology.NewRing(ids, cfg.Vnodes)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	est, err := core.NewEstimator(cfg.Estimator)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	place, err := replica.NewPlacement(ring, cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	sel, err := replica.NewSelector(cfg.selectorPolicy(), est, seed^0x5e1ec7)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	c := &Client{
		cfg:       cfg,
		ring:      ring,
		est:       est,
		place:     place,
		sel:       sel,
		vclock:    replica.NewClock(nil),
		start:     time.Now(),
		cm:        newClientMetrics(),
		conns:     make(map[sched.ServerID]*clientConn, len(cfg.Servers)),
		redialAt:  make(map[sched.ServerID]time.Time, len(cfg.Servers)),
		repairing: make(map[string]bool),
		rng:       rand.New(rand.NewPCG(seed, seed^0xda5c0def00d)),
	}
	if cfg.TraceDepth >= 0 {
		depth := cfg.TraceDepth
		if depth == 0 {
			depth = DefaultTraceDepth
		}
		c.traces = newTraceRing(depth)
	}
	for id, addr := range cfg.Servers {
		cc, err := c.dial(id, addr)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.conns[id] = cc
	}
	return c, nil
}

func (c *Client) now() time.Duration { return time.Since(c.start) }

// opCtx applies the configured default per-request deadline when the
// caller's context carries none.
func (c *Client) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.cfg.RequestTimeout)
}

// deadlineBudget converts a context deadline into the remaining-time
// budget carried on the wire (0 = no deadline).
func deadlineBudget(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return 1 // already expired; the server sheds it on arrival
	}
	return int64(rem)
}

// taggingEst returns the estimator used for tagging, nil when the
// client runs static tags.
func (c *Client) taggingEst() *core.Estimator {
	if c.cfg.Adaptive {
		return c.est
	}
	return nil
}

// noteServerFailure marks a server down in the adaptive view so
// subsequent routing and tagging treat it as a last resort until it
// answers again or its quarantine ages out.
func (c *Client) noteServerFailure(id sched.ServerID) {
	c.est.MarkDown(id, c.now())
}

// observeService feeds one server-reported service time back into the
// adaptive demand estimator, closing the calibration loop: the
// estimator learns the per-server ratio between predicted demand and
// actual service, so tags converge toward true service times even when
// the configured demand model is wrong. Only genuinely served
// operations teach — shed ops (ServiceNanos 0) and server errors carry
// no service-time signal. NotFound and CASMismatch are real service —
// full lookups that merely found nothing to change — so they count.
func (c *Client) observeService(server sched.ServerID, predicted time.Duration, tm wire.Timing, status wire.Status, sizeBytes int64) {
	if !c.cfg.Adaptive || tm.ServiceNanos <= 0 {
		return
	}
	switch status {
	case wire.StatusOK, wire.StatusNotFound, wire.StatusCASMismatch:
		c.est.ObserveService(server, predicted, time.Duration(tm.ServiceNanos))
		// The payload that actually moved also teaches the size model,
		// so future size hints map to realistic demands.
		c.est.ObserveSizedService(server, sizeBytes, time.Duration(tm.ServiceNanos))
	}
}

// demandFor estimates one operation's service demand and payload size.
// A known size (a write's value, or a read with a SizeHint) prefers the
// estimator's learned size model once it has seen enough
// traffic — so a 1 MB get is tagged with the realistically large
// demand its transfer implies — falling back to the static Demand
// heuristic before the model is ready or when size is unknown.
func (c *Client) demandFor(op wire.OpType, key string, valueLen int) (demand time.Duration, sizeBytes int64) {
	sizeBytes = int64(valueLen)
	if sizeBytes == 0 && c.cfg.SizeHint != nil {
		if n := c.cfg.SizeHint(op, key); n > 0 {
			sizeBytes = int64(n)
		}
	}
	if c.cfg.Adaptive && sizeBytes > 0 {
		if d, ok := c.est.SizedDemand(sizeBytes); ok {
			return d, sizeBytes
		}
	}
	// The static model prices a read's expected payload like a write's
	// actual one — without this a hinted 1 MB get would be tagged as a
	// tiny op until the learned model warms up, inverting SRPT order.
	if valueLen == 0 && sizeBytes > 0 && sizeBytes <= int64(int(^uint(0)>>1)) {
		valueLen = int(sizeBytes)
	}
	return c.cfg.Demand(op, len(key), valueLen), sizeBytes
}

// retrySleep waits one jittered exponential-backoff step before retry
// attempt n (0-based): RetryBackoff * 2^n, scaled uniformly in
// [0.5, 1.5), honoring context cancellation.
func (c *Client) retrySleep(ctx context.Context, attempt int) error {
	if attempt > 16 {
		attempt = 16 // cap the exponent; backoff beyond ~5min is silly
	}
	c.rngMu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	d := time.Duration(float64(c.cfg.RetryBackoff<<uint(attempt)) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close tears down all connections; in-flight calls fail. Background
// work — read-repairs and the stragglers of replicated operations — is
// drained before Close returns.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for _, cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.shutdown(ErrClientClosed)
	}
	// Refuse new repair launches, then wait out the in-flight ones —
	// with the connections gone they fail fast.
	c.repairMu.Lock()
	c.repairClosed = true
	c.repairMu.Unlock()
	c.repairWG.Wait()
	return nil
}

// Get fetches one key at the client's default consistency level.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	return c.GetLevel(ctx, key, wire.ConsistencyDefault)
}

// get is the single-holder read path: a one-key multiget (retries,
// failover and tracing included) without the result map.
func (c *Client) get(ctx context.Context, key string) ([]byte, error) {
	m := c.readKeys(ctx, []string{key})
	defer m.finish()
	s := &m.slots[0]
	switch {
	case s.err != nil:
		return nil, &PartialError{Errs: map[string]error{key: s.err}}
	case !s.found:
		return nil, ErrNotFound
	}
	return s.take(), nil
}

// Put stores one key on every replica at the client's default
// consistency level.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	return c.PutTTL(ctx, key, value, 0)
}

// PutTTL stores one key on every replica, expiring after ttl (0 =
// never), at the client's default consistency level.
func (c *Client) PutTTL(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	return c.PutTTLLevel(ctx, key, value, ttl, wire.ConsistencyDefault)
}

// ErrCASMismatch reports a CompareAndSwap whose expected value did not
// match.
var ErrCASMismatch = errors.New("kv: compare-and-swap mismatch")

// CompareAndSwap atomically replaces key's value iff its current value
// equals oldValue (empty oldValue = "expect absent"). It returns
// ErrCASMismatch when the comparison fails. CAS is restricted to
// single-replica configurations: with write fan-out there is no
// cross-replica atomicity to offer.
func (c *Client) CompareAndSwap(ctx context.Context, key string, oldValue, newValue []byte) error {
	if c.cfg.Replicas > 1 {
		return fmt.Errorf("kv: CAS requires a single-replica configuration (have %d)", c.cfg.Replicas)
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	resp, err := c.send(ctx, c.ring.Lookup(key), wire.Request{
		Type: wire.OpCAS, Key: key, Value: newValue, OldValue: oldValue,
	})
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusCASMismatch:
		return ErrCASMismatch
	default:
		return fmt.Errorf("kv: CAS on %q failed", key)
	}
}

// Incr atomically adds delta to the integer counter stored under key
// (absent = 0, stored as ASCII decimal, so Get interoperates) and
// returns the new total. Like CAS it is a read-modify-write, so it is
// restricted to single-replica configurations. On servers running the
// `coalesce` WAL sync policy a hot counter's increments fold into one
// log record per commit window, so disk bytes track distinct keys
// rather than increments. A total that would overflow int64 fails the
// op without mutating.
func (c *Client) Incr(ctx context.Context, key string, delta int64) (int64, error) {
	return c.IncrTTL(ctx, key, delta, 0)
}

// IncrTTL is Incr with an expiry restamp (0 = keep forever), the
// shape rate-limit windows want. A negative ttl is rejected, as PutTTL
// rejects it.
func (c *Client) IncrTTL(ctx context.Context, key string, delta int64, ttl time.Duration) (int64, error) {
	if ttl < 0 {
		return 0, fmt.Errorf("kv: negative ttl %v", ttl)
	}
	if c.cfg.Replicas > 1 {
		return 0, fmt.Errorf("kv: Incr requires a single-replica configuration (have %d)", c.cfg.Replicas)
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(delta))
	resp, err := c.send(ctx, c.ring.Lookup(key), wire.Request{
		Type: wire.OpIncr, Key: key, Value: buf[:], TTLNanos: int64(ttl),
	})
	if err != nil {
		return 0, err
	}
	if resp.Status != wire.StatusOK {
		return 0, fmt.Errorf("kv: incr on %q failed (status %d)", key, resp.Status)
	}
	total, perr := strconv.ParseInt(string(resp.Value), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("kv: incr on %q returned non-integer total %q", key, resp.Value)
	}
	return total, nil
}

// MSet stores many keys (each replicated per the client's Replicas
// setting). Writes are grouped by destination server and sent as batch
// frames — one goroutine and O(1) syscalls per server, never one per
// key — with at most WriteFanoutLimit batches in flight. It fails on
// the first error; on error some writes may have been applied.
func (c *Client) MSet(ctx context.Context, pairs map[string][]byte) error {
	if len(pairs) == 0 {
		return nil
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	// Group by destination server, replica-aware: each key fans out to
	// every holder, replicated puts stamped with one last-writer-wins
	// version so partial fan-outs reconcile under read-repair.
	groups := make(map[sched.ServerID][]writeOp, len(c.cfg.Servers))
	for k, v := range pairs {
		version := c.versionFor(wire.OpPut)
		for _, server := range c.place.For(k) {
			groups[server] = append(groups[server], writeOp{server: server, key: k, value: v, version: version})
		}
	}
	// Split each server's run into frame-sized chunks and drain them
	// through a bounded worker pool.
	var chunks [][]writeOp
	limit := c.cfg.batchLimit()
	for _, list := range groups {
		for start := 0; start < len(list); {
			end, bytes := start, 0
			for end < len(list) && end-start < limit {
				sz := len(list[end].key) + len(list[end].value) + reqOverhead
				if end > start && bytes+sz > maxBatchBytes {
					break
				}
				bytes += sz
				end++
			}
			chunks = append(chunks, list[start:end])
			start = end
		}
	}
	workers := c.cfg.writeLimit()
	if workers > len(chunks) {
		workers = len(chunks)
	}
	work := make(chan []writeOp)
	errs := make(chan error, len(chunks))
	for w := 0; w < workers; w++ {
		go func() {
			for ops := range work {
				_, err := c.putBatch(ctx, ops)
				errs <- err
			}
		}()
	}
	for _, ch := range chunks {
		work <- ch
	}
	close(work)
	var firstErr error
	for range chunks {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// writeOp is one put of a multiset or a repair plan: its holder, key,
// value, and the last-writer-wins version it was stamped with.
type writeOp struct {
	server  sched.ServerID
	key     string
	value   []byte
	version uint64
}

// putBatch sends ops as one call, a batch frame per server, and waits
// out every acknowledgement. It reports how many were acknowledged OK
// and the first failure (transport, server error, or deadline shed).
func (c *Client) putBatch(ctx context.Context, ops []writeOp) (int, error) {
	now := c.now()
	m := c.newCall(ctx, len(ops), false)
	defer m.finish()
	for i, wo := range ops {
		m.prepare(i, wo.server, &wire.Request{Type: wire.OpPut, Key: wo.key, Value: wo.value}, now)
	}
	m.dispatchByServer(len(ops), func(i int) wire.Request {
		wo := ops[i]
		return wire.Request{Type: wire.OpPut, Key: wo.key, Value: wo.value, Version: wo.version}
	})
	m.wait()
	acked := 0
	var firstErr error
	for i := range m.slots {
		switch s := &m.slots[i]; {
		case s.err != nil && firstErr == nil:
			firstErr = s.err
		case s.found:
			acked++
		}
	}
	return acked, firstErr
}

// Delete removes one key from every replica at the client's default
// consistency level. Deleting a key absent from all consulted replicas
// returns ErrNotFound.
func (c *Client) Delete(ctx context.Context, key string) error {
	return c.DeleteLevel(ctx, key, wire.ConsistencyDefault)
}

// routeRead picks the serving replica for a read among cands (the
// key's holders in placement order) at time now and records the
// dispatch in the selector's in-flight accounting; every routeRead must
// be balanced by exactly one retireRead.
func (c *Client) routeRead(cands []sched.ServerID, demand, now time.Duration) sched.ServerID {
	s := c.sel.Pick(cands, demand, now)
	c.sel.OnDispatch(s)
	return s
}

// retireRead retires one dispatched read (response arrived or the
// attempt died).
func (c *Client) retireRead(server sched.ServerID) {
	c.sel.OnComplete(server)
}

// MGet fetches many keys in parallel — the end-user request whose
// completion time DAS schedules for. Missing keys are absent from the
// result map.
//
// MGet degrades gracefully: when some operations fail (a server died
// mid-request, a deadline expired), it still returns every key that
// completed, alongside a *PartialError carrying the per-key causes. A
// nil error means every key was resolved (present or definitively
// absent). Transport failures on individual operations are retried up
// to ReadRetries times with jittered backoff, re-routed around servers
// the estimator has marked down.
func (c *Client) MGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	m := c.readKeys(ctx, keys)
	defer m.finish()
	out := make(map[string][]byte, len(keys))
	var failed map[string]error
	for i := range m.slots {
		switch s := &m.slots[i]; {
		case s.err != nil:
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[keys[i]] = s.err
		case s.found:
			out[keys[i]] = s.take()
		}
	}
	if failed != nil {
		return out, &PartialError{Errs: failed}
	}
	return out, nil
}

// readKeys resolves one read per key on a pooled call and records the
// request; the caller reads the completed slots, in key order, and
// lets go of the call with finish. Ops are routed and tagged as one
// request, then each destination server's share goes out inline as one
// batch frame. Responses stay per-op, so the server's scheduler
// reorders freely within and across batches; the read loops complete
// the slots and wake this goroutine once, when the last one is done.
func (c *Client) readKeys(ctx context.Context, keys []string) *call {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	wallStart := time.Now()
	now := c.now()
	m := c.newCall(ctx, len(keys), true)
	for i, k := range keys {
		s := &m.slots[i]
		demand, size := c.demandFor(wire.OpGet, k, 0)
		// Routing the batch sequentially lets the selector's in-flight
		// accounting spread a wide multiget across replicas instead of
		// dogpiling the holder that looked best a microsecond ago.
		m.route = c.place.AppendFor(m.route[:0], k)
		s.op = sched.Op{Server: c.routeRead(m.route, demand, now), Key: k, Demand: demand}
		s.op.Tags.SizeBytes = size
		s.typ = wire.OpGet
		s.score = c.sel.ScoreOf(s.op.Server, demand, now).Finish - now
	}
	core.Tag(m.ops, c.taggingEst(), now)
	m.dispatchByServer(len(keys), func(i int) wire.Request {
		return wire.Request{Type: wire.OpGet, Key: keys[i]}
	})
	m.wait()
	partial := false
	for i := range m.slots {
		s := &m.slots[i]
		if s.err != nil {
			partial = true
		} else if s.attempts > 1 {
			// The failed holder may have missed writes while unreachable.
			c.maybeRepair(s.op.Key)
		}
	}
	c.recordRequest(wallStart, m.trace(now), partial)
	return m
}

// recordRequest finalizes a multiget's trace — flags the straggler,
// feeds the client-local histograms — and retains it in the ring.
func (c *Client) recordRequest(wallStart time.Time, traces []OpTrace, partial bool) {
	straggler := -1
	var rct time.Duration
	for i := range traces {
		if traces[i].End >= rct {
			rct = traces[i].End
			straggler = i
		}
	}
	if straggler >= 0 {
		traces[straggler].Straggler = true
	}
	c.cm.observeRequest(rct, traces, partial)
	if c.traces == nil {
		return
	}
	c.traces.add(RequestTrace{
		Start:          wallStart,
		RCT:            rct,
		Fanout:         len(traces),
		StragglerIndex: straggler,
		Partial:        partial,
		Ops:            traces,
	})
}

// writeChunked sends reqs as one batch frame, splitting only when the
// group exceeds the per-frame operation or byte limits.
func (c *Client) writeChunked(cc *clientConn, reqs []wire.Request) error {
	limit := c.cfg.batchLimit()
	for start := 0; start < len(reqs); {
		end, bytes := start, 0
		for end < len(reqs) && end-start < limit {
			sz := len(reqs[end].Key) + len(reqs[end].Value) + len(reqs[end].OldValue) + reqOverhead
			if end > start && bytes+sz > maxBatchBytes {
				break
			}
			bytes += sz
			end++
		}
		if err := cc.writeBatch(reqs[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// backgroundTimeout bounds work that outlives its caller — a
// read-repair, the stragglers of a replicated operation — by the
// configured RequestTimeout, or by 5s without one.
func (c *Client) backgroundTimeout() time.Duration {
	if c.cfg.RequestTimeout > 0 {
		return c.cfg.RequestTimeout
	}
	return 5 * time.Second
}

// Repair synchronously reconciles key's replica set: it reads every
// holder in one call, finds the newest version, and replays that write
// onto reachable holders that missed it, in a second call
// (last-writer-wins, so replaying is idempotent). It returns how many
// replicas were brought up to date; a non-nil error reports the first
// holder that could not be read or repaired, alongside whatever repairs
// did land. With Replicas <= 1 there is nothing to reconcile.
func (c *Client) Repair(ctx context.Context, key string) (int, error) {
	if c.cfg.Replicas <= 1 {
		return 0, nil
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	m := c.holderCall(ctx, wire.Request{Type: wire.OpGet, Key: key}, 0)
	defer m.finish()
	var firstErr error
	for i := range m.slots {
		s := &m.slots[i]
		if s.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("kv: repair %q: read server %d: %w", key, s.op.Server, s.err)
		}
		m.reads = append(m.reads, s.readResult())
	}
	plan := replica.Repairs(m.reads)
	if len(plan) == 0 {
		return 0, firstErr
	}
	ops := make([]writeOp, len(plan))
	for i, rep := range plan {
		ops[i] = writeOp{server: rep.Server, key: key, value: rep.Value, version: uint64(rep.Version)}
	}
	fixed, err := c.putBatch(ctx, ops)
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("kv: repair %q: %w", key, err)
	}
	return fixed, firstErr
}

// maybeRepair launches one background repair for key, deduplicating
// concurrent triggers and respecting NoReadRepair / single-replica
// configurations.
func (c *Client) maybeRepair(key string) {
	if c.cfg.Replicas <= 1 || c.cfg.NoReadRepair {
		return
	}
	c.repairMu.Lock()
	if c.repairClosed || c.repairing[key] {
		c.repairMu.Unlock()
		return
	}
	c.repairing[key] = true
	c.repairWG.Add(1)
	c.repairMu.Unlock()
	go func() {
		defer c.repairWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), c.backgroundTimeout())
		_, _ = c.Repair(ctx, key)
		cancel()
		c.repairMu.Lock()
		delete(c.repairing, key)
		c.repairMu.Unlock()
	}()
}

// KeyReplicas returns key's replica holders in placement priority order
// (the first is the ring primary).
func (c *Client) KeyReplicas(key string) []sched.ServerID {
	return c.place.For(key)
}

// ReplicaScores ranks key's replica holders by the selector's current
// adaptive view, best first — the introspection behind kvctl's
// `replicas` subcommand.
func (c *Client) ReplicaScores(key string) []replica.Score {
	demand, _ := c.demandFor(wire.OpGet, key, 0)
	return c.sel.Scores(c.place.For(key), demand, c.now())
}

// send executes one single-key operation against server and waits for
// its response. The caller fills the request's type, key, value, TTL,
// old value, version and consistency level; send stamps the ID, fresh
// scheduling tags and the deadline budget. A server error or deadline
// shed comes back as an error; any other status is the caller's to
// interpret.
func (c *Client) send(ctx context.Context, server sched.ServerID, req wire.Request) (*wire.Response, error) {
	m := c.newCall(ctx, 1, false)
	defer m.finish()
	m.prepare(0, server, &req, c.now())
	m.dispatchByServer(1, func(int) wire.Request { return req })
	m.wait()
	s := &m.slots[0]
	if s.err != nil {
		return nil, s.err
	}
	return &wire.Response{Status: s.status, Value: s.take(), Version: s.version, Timing: s.tm}, nil
}

// Stats fetches one server's statistics document. The stats request
// travels through the server's scheduling queue like any operation.
func (c *Client) Stats(ctx context.Context, server sched.ServerID) (wire.ServerStats, error) {
	var stats wire.ServerStats
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	resp, err := c.send(ctx, server, wire.Request{Type: wire.OpStats})
	if err != nil {
		return stats, err
	}
	if resp.Status != wire.StatusOK {
		return stats, fmt.Errorf("kv: stats request to server %d failed", server)
	}
	if err := json.Unmarshal(resp.Value, &stats); err != nil {
		return stats, fmt.Errorf("kv: decode stats from server %d: %w", server, err)
	}
	return stats, nil
}

// Servers returns the configured server identities in ascending order.
func (c *Client) Servers() []sched.ServerID {
	return c.ring.Servers()
}

// wireTags converts tagged scheduling metadata to its wire form.
func wireTags(op *sched.Op) wire.Tags {
	size := op.Tags.SizeBytes
	if size < 0 || size > int64(^uint32(0)) {
		size = 0
	}
	return wire.Tags{
		RemainingNanos:  int64(op.Tags.RemainingTime),
		SlackNanos:      int64(op.Tags.Slack()),
		BottleneckNanos: int64(op.Tags.DemandBottleneck),
		DemandNanos:     int64(op.Demand),
		Fanout:          uint32(op.Tags.Fanout),
		SizeHintBytes:   uint32(size),
	}
}

// conn returns a live connection to the server, redialing a dead one
// outside the backoff window. Concurrent callers during a redial fail
// fast rather than queueing behind the dial.
func (c *Client) conn(id sched.ServerID) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	cc, ok := c.conns[id]
	if ok && !cc.isDead() {
		c.mu.Unlock()
		return cc, nil
	}
	addr, known := c.cfg.Servers[id]
	if !known {
		c.mu.Unlock()
		return nil, fmt.Errorf("kv: no connection for server %d", id)
	}
	if until := c.redialAt[id]; time.Now().Before(until) {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: server %d in reconnect backoff", ErrUnavailable, id)
	}
	c.redialAt[id] = time.Now().Add(c.cfg.ReconnectBackoff)
	c.mu.Unlock()

	fresh, err := c.dial(id, addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		fresh.shutdown(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if cur, ok := c.conns[id]; ok && !cur.isDead() && cur != fresh {
		// Another goroutine won the race; keep its connection.
		fresh.shutdown(ErrClientClosed)
		return cur, nil
	}
	c.conns[id] = fresh
	return fresh, nil
}

// clientConn is one client-server connection: serialized writes, a
// reader goroutine completing the slots of calls awaiting responses,
// and feedback observation into the shared estimator.
type clientConn struct {
	client *Client
	server sched.ServerID
	conn   net.Conn

	wmu sync.Mutex
	w   *wire.Writer

	mu      sync.Mutex
	pending map[uint64]slotRef
	dead    bool
}

func (c *Client) dial(id sched.ServerID, addr string) (*clientConn, error) {
	conn, err := c.cfg.Dial(addr, c.cfg.DialTimeout)
	if err != nil {
		c.noteServerFailure(id)
		return nil, fmt.Errorf("%w: dial server %d at %s: %w", ErrUnavailable, id, addr, err)
	}
	cc := &clientConn{
		client:  c,
		server:  id,
		conn:    conn,
		w:       wire.NewWriter(conn),
		pending: make(map[uint64]slotRef),
	}
	go cc.readLoop()
	return cc, nil
}

// writeBatch sends a run of requests as one batch frame.
func (cc *clientConn) writeBatch(reqs []wire.Request) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.w.WriteBatch(reqs)
}

// slotRef names the call slot awaiting one wire ID.
type slotRef struct {
	call *call
	slot int
}

// register records the slots idx of m as the waiters for their
// requests' IDs in one critical section; it fails, registering none,
// on a dead connection.
func (cc *clientConn) register(m *call, idx []int, reqs []wire.Request) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return false
	}
	for j, i := range idx {
		cc.pending[reqs[j].ID] = slotRef{call: m, slot: i}
	}
	return true
}

// take removes id's waiter, reporting whether it was still pending —
// the caller that gets true owns the slot's completion.
func (cc *clientConn) take(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.pending[id]; !ok {
		return false
	}
	delete(cc.pending, id)
	return true
}

// lost is the transport error of an operation on key whose connection
// died before it was answered.
func (cc *clientConn) lost(key string) error {
	return fmt.Errorf("%w: connection to server %d lost awaiting %q", ErrUnavailable, cc.server, key)
}

// valueFree recycles value byte buffers across the data plane: response
// copies the client readLoop puts into call slots, server-side store
// reads, and queued-op payload copies. A buffered channel rather than a
// sync.Pool because channel transfer of a slice never allocates its
// header, so the recycle path itself costs zero allocations. Buffers
// return via putValueBuf only at sites where they are provably dead
// (write acks, non-OK reads, encoded responses); values surfaced to
// callers are theirs to keep and never re-enter the pool.
var valueFree = make(chan []byte, 512)

// maxPooledValue bounds the capacity kept on the freelist so a burst of
// huge values cannot pin gigabytes (512 × 64KiB = 32MiB worst case).
const maxPooledValue = 64 << 10

// getValueBuf returns a length-n buffer, reusing pooled capacity.
func getValueBuf(n int) []byte {
	select {
	case b := <-valueFree:
		if cap(b) >= n {
			return b[:n]
		}
		putValueBuf(b) // too small for this caller; the next may fit
	default:
	}
	return make([]byte, n)
}

// putValueBuf recycles a dead value buffer; empty and oversized buffers
// are dropped, as is everything past the freelist's depth.
func putValueBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledValue {
		return
	}
	select {
	case valueFree <- b[:0]:
	default:
	}
}

func (cc *clientConn) readLoop() {
	r := wire.NewReader(cc.conn)
	defer r.Release()
	var resp wire.Response
	for {
		if err := r.ReadResponse(&resp); err != nil {
			cc.shutdown(err)
			return
		}
		if cc.client.cfg.Adaptive {
			cc.client.est.Observe(core.Feedback{
				Server:   cc.server,
				QueueLen: int(resp.Feedback.QueueLen),
				Backlog:  time.Duration(resp.Feedback.BacklogNanos),
				Speed:    float64(resp.Feedback.SpeedMilli) / 1000,
				// Feedback freshness is tracked on the client clock at
				// receipt; one-way delay skews all servers about
				// equally, so comparisons stay meaningful.
				At: cc.client.now(),
			})
		}
		// Look the waiter up before copying: a response nobody awaits
		// (its call was cancelled, or the op was retried elsewhere) is
		// dropped without copying.
		cc.mu.Lock()
		ref, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		if ok {
			ref.call.deliver(ref.slot, &resp)
		}
	}
}

// isDead reports whether the connection has been torn down.
func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// shutdown closes the socket and fails all waiters. A cause other than
// a deliberate client close marks the server down in the adaptive view.
func (cc *clientConn) shutdown(cause error) {
	_ = cc.conn.Close()
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	cc.wmu.Lock()
	cc.w.Release()
	cc.wmu.Unlock()
	if !errors.Is(cause, ErrClientClosed) {
		cc.client.noteServerFailure(cc.server)
	}
	for _, ref := range pending {
		ref.call.fail(ref.slot, cc.lost(ref.call.slots[ref.slot].op.Key))
	}
}

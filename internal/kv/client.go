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
// estimator's learned per-size-class model once it has seen enough
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
	// tiny op until the learned model warms up, inverting SRPT order
	// and poisoning the server-speed feedback (demand vs elapsed).
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
// read-repair goroutines are drained before Close returns.
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

// get is the single-holder read path: one selector-chosen replica via
// the multiget machinery (retries, failover, tracing included).
func (c *Client) get(ctx context.Context, key string) ([]byte, error) {
	res, err := c.MGet(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	v, ok := res[key]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// Put stores one key on every replica (synchronous write fan-out).
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
		var version uint64
		if c.cfg.Replicas > 1 {
			version = uint64(c.vclock.Next())
		}
		for _, server := range c.place.For(k) {
			groups[server] = append(groups[server], writeOp{key: k, value: v, version: version})
		}
	}
	// Split each server's run into frame-sized chunks and drain them
	// through a bounded worker pool.
	type chunk struct {
		server sched.ServerID
		ops    []writeOp
	}
	var chunks []chunk
	limit := c.cfg.batchLimit()
	for server, list := range groups {
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
			chunks = append(chunks, chunk{server: server, ops: list[start:end]})
			start = end
		}
	}
	workers := c.cfg.writeLimit()
	if workers > len(chunks) {
		workers = len(chunks)
	}
	work := make(chan chunk)
	errs := make(chan error, len(chunks))
	for w := 0; w < workers; w++ {
		go func() {
			for ch := range work {
				errs <- c.putBatch(ctx, ch.server, ch.ops)
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

// writeOp is one pending put of a multiset: a key, its value, and the
// last-writer-wins version it was stamped with.
type writeOp struct {
	key     string
	value   []byte
	version uint64
}

// putBatch sends one server's chunk of multiset writes as a single
// batch frame and waits out every acknowledgement. It returns the
// first per-op failure (transport, server error, or deadline shed).
func (c *Client) putBatch(ctx context.Context, server sched.ServerID, ops []writeOp) error {
	now := c.now()
	cc, err := c.conn(server)
	if err != nil {
		return err
	}
	dl := deadlineBudget(ctx)
	reqs := make([]wire.Request, len(ops))
	ids := make([]uint64, len(ops))
	chs := make([]chan wire.Response, len(ops))
	demands := make([]time.Duration, len(ops))
	// Writes are tagged individually (fanout 1), matching the single-key
	// path; one reusable op keeps the loop allocation-free.
	var op sched.Op
	tagBuf := []*sched.Op{&op}
	for i, wo := range ops {
		demand, size := c.demandFor(wire.OpPut, wo.key, len(wo.value))
		demands[i] = demand
		op = sched.Op{
			Server: server,
			Key:    wo.key,
			Demand: demands[i],
		}
		op.Tags.SizeBytes = size
		core.Tag(tagBuf, c.taggingEst(), now)
		id := c.nextID.Add(1)
		ids[i] = id
		chs[i] = cc.register(id)
		reqs[i] = wire.Request{
			ID: id, Type: wire.OpPut, Key: wo.key, Value: wo.value,
			Tags: wireTags(&op), DeadlineNanos: dl, Version: wo.version,
		}
	}
	if werr := cc.writeBatch(reqs); werr != nil {
		for _, id := range ids {
			cc.unregister(id)
		}
		c.noteServerFailure(server)
		return fmt.Errorf("%w: send to server %d: %w", ErrUnavailable, server, werr)
	}
	var firstErr error
	for i := range ops {
		var opErr error
		select {
		case resp, ok := <-chs[i]:
			switch {
			case !ok:
				opErr = fmt.Errorf("%w: connection to server %d lost awaiting %q",
					ErrUnavailable, server, ops[i].key)
			case resp.Status == wire.StatusError:
				opErr = fmt.Errorf("kv: server error for key %q", ops[i].key)
			case resp.Status == wire.StatusDeadlineExceeded:
				opErr = fmt.Errorf("kv: server %d shed %q past its deadline: %w",
					server, ops[i].key, context.DeadlineExceeded)
			}
			if ok {
				c.observeService(server, demands[i], resp.Timing, resp.Status, int64(len(ops[i].value)))
				putRespChan(chs[i])
				putValueBuf(resp.Value)
			}
		case <-ctx.Done():
			cc.unregister(ids[i])
			opErr = ctx.Err()
		}
		if opErr != nil && firstErr == nil {
			firstErr = opErr
		}
	}
	return firstErr
}

// Delete removes one key from every replica at the client's default
// consistency level. Deleting a key absent from all consulted replicas
// returns ErrNotFound.
func (c *Client) Delete(ctx context.Context, key string) error {
	return c.DeleteLevel(ctx, key, wire.ConsistencyDefault)
}

// fanoutWrite sends a write to every replica holder and waits for all.
// Replicated puts are stamped with one last-writer-wins version from
// the client's clock, so partial fan-outs reconcile deterministically
// under read-repair. It reports whether any replica answered StatusOK.
func (c *Client) fanoutWrite(ctx context.Context, req wire.Request) (bool, error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	if req.Type == wire.OpPut && c.cfg.Replicas > 1 {
		req.Version = uint64(c.vclock.Next())
	}
	replicas := c.place.For(req.Key)
	if len(replicas) == 1 {
		resp, err := c.send(ctx, replicas[0], req)
		if err != nil {
			return false, err
		}
		return resp.Status == wire.StatusOK, nil
	}
	type outcome struct {
		ok  bool
		err error
	}
	results := make(chan outcome, len(replicas))
	for _, server := range replicas {
		server := server
		go func() {
			resp, err := c.send(ctx, server, req)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{ok: resp.Status == wire.StatusOK}
		}()
	}
	anyOK := false
	var firstErr error
	for range replicas {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		anyOK = anyOK || r.ok
	}
	if firstErr != nil {
		return anyOK, firstErr
	}
	return anyOK, nil
}

// routeRead picks the serving replica for a read of key at time now and
// records the dispatch in the selector's in-flight accounting; every
// routeRead must be balanced by exactly one retireRead.
func (c *Client) routeRead(key string, demand, now time.Duration) sched.ServerID {
	s := c.sel.Pick(c.place.For(key), demand, now)
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
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	wallStart := time.Now()
	now := c.now()
	opsBacking := make([]sched.Op, len(keys))
	ops := make([]*sched.Op, len(keys))
	scores := make([]time.Duration, len(keys))
	for i, k := range keys {
		demand, size := c.demandFor(wire.OpGet, k, 0)
		// Routing the batch sequentially lets the selector's in-flight
		// accounting spread a wide multiget across replicas instead of
		// dogpiling the holder that looked best a microsecond ago.
		opsBacking[i] = sched.Op{
			Server: c.routeRead(k, demand, now),
			Key:    k,
			Demand: demand,
		}
		opsBacking[i].Tags.SizeBytes = size
		ops[i] = &opsBacking[i]
		scores[i] = c.sel.ScoreOf(ops[i].Server, demand, now).Finish - now
	}
	core.Tag(ops, c.taggingEst(), now)

	// Group the fan-out by destination server: one goroutine and one
	// batch frame per server, instead of one goroutine and one wire
	// frame per operation. Responses stay per-op, so the server's
	// scheduler reorders freely within and across batches.
	groups := make(map[sched.ServerID][]int, len(c.cfg.Servers))
	for i, op := range ops {
		groups[op.Server] = append(groups[op.Server], i)
	}
	results := make(chan keyResult, len(ops))
	for server, idxs := range groups {
		server, idxs := server, idxs
		go c.mgetBatch(ctx, server, ops, idxs, scores, now, results)
	}
	out := make(map[string][]byte, len(keys))
	var failed map[string]error
	traces := make([]OpTrace, len(ops))
	for range ops {
		r := <-results
		traces[r.index] = r.trace
		switch {
		case r.err != nil:
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[keys[r.index]] = r.err
		case r.found:
			out[keys[r.index]] = r.value
		}
	}
	c.recordRequest(wallStart, traces, failed != nil)
	if failed != nil {
		return out, &PartialError{Errs: failed}
	}
	return out, nil
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

// keyResult is one resolved multiget operation flowing back to MGet's
// collector.
type keyResult struct {
	index int
	value []byte
	found bool
	err   error
	trace OpTrace
}

// emitResult delivers one resolved multiget operation, building its
// trace entry. A plain method with explicit arguments (no captured
// closure) so the happy path allocates nothing per group.
func (c *Client) emitResult(results chan<- keyResult, op *sched.Op, i int, score, start, reqStart time.Duration, value []byte, found bool, tm wire.Timing, attempts int, err error) {
	res := keyResult{index: i, value: value, found: found, err: err}
	res.trace = OpTrace{
		Index:          i,
		Key:            op.Key,
		Server:         op.Server,
		Replicas:       c.cfg.Replicas,
		Attempts:       attempts,
		Start:          start - reqStart,
		End:            c.now() - reqStart,
		ExpectedFinish: op.Tags.ExpectedFinish - reqStart,
		Score:          score,
		Wait:           time.Duration(tm.WaitNanos),
		Service:        time.Duration(tm.ServiceNanos),
		Class:          sched.Class(tm.SchedClass).String(),
		Bytes:          len(value),
		Found:          found,
	}
	if err != nil {
		res.trace.Err = err.Error()
	}
	results <- res
}

// retryEmit continues one failed read on the retry ladder and emits its
// final outcome — the goroutine body for ops that leave the batch path.
func (c *Client) retryEmit(ctx context.Context, op *sched.Op, i int, score, start, reqStart time.Duration, results chan<- keyResult, lastErr error, lastTm wire.Timing) {
	value, found, tm, attempts, err := c.retryGet(ctx, op, lastErr, lastTm, 1)
	c.emitResult(results, op, i, score, start, reqStart, value, found, tm, attempts, err)
}

// retryAllEmit hands every op in a group to its own retry continuation
// after a whole-batch transport failure — the rare path, so the
// goroutine-per-op cost returns only under failure. Each op's dispatch
// accounting is retired here; the retry ladder re-routes from scratch.
func (c *Client) retryAllEmit(ctx context.Context, ops []*sched.Op, idxs []int, scores []time.Duration, start, reqStart time.Duration, results chan<- keyResult, err error) {
	for _, i := range idxs {
		op := ops[i]
		c.retireRead(op.Server)
		go c.retryEmit(ctx, op, i, scores[i], start, reqStart, results, err, wire.Timing{})
	}
}

// getWaiter pairs one in-flight read's wire ID with its response
// channel.
type getWaiter struct {
	id uint64
	ch chan wire.Response
}

// mgetBatch resolves one destination server's share of a multiget: it
// registers every waiter, sends the whole group as one batch frame
// (split only past the frame limits), then collects per-op responses.
// Operations that fail in a retryable way continue individually on the
// existing re-route-and-backoff path, so batching never weakens the
// degraded-multiget guarantees.
func (c *Client) mgetBatch(ctx context.Context, server sched.ServerID, ops []*sched.Op, idxs []int, scores []time.Duration, reqStart time.Duration, results chan<- keyResult) {
	start := c.now()
	cc, err := c.conn(server)
	if err != nil {
		if !errors.Is(err, ErrClientClosed) {
			err = fmt.Errorf("%w: %w", ErrUnavailable, err)
		}
		c.retryAllEmit(ctx, ops, idxs, scores, start, reqStart, results, err)
		return
	}
	dl := deadlineBudget(ctx)
	waiters := make([]getWaiter, len(idxs))
	reqs := make([]wire.Request, len(idxs))
	for j, i := range idxs {
		op := ops[i]
		id := c.nextID.Add(1)
		waiters[j] = getWaiter{id: id, ch: cc.register(id)}
		reqs[j] = wire.Request{
			ID:            id,
			Type:          wire.OpGet,
			Key:           op.Key,
			Tags:          wireTags(op),
			DeadlineNanos: dl,
		}
	}
	if werr := c.writeChunked(cc, reqs); werr != nil {
		for _, w := range waiters {
			cc.unregister(w.id)
		}
		c.noteServerFailure(server)
		c.retryAllEmit(ctx, ops, idxs, scores, start, reqStart, results,
			fmt.Errorf("%w: send to server %d: %w", ErrUnavailable, server, werr))
		return
	}
	for j, i := range idxs {
		op := ops[i]
		value, _, found, tm, err := c.awaitGet(ctx, cc, waiters[j].id, waiters[j].ch, op)
		c.retireRead(op.Server)
		if err == nil {
			c.emitResult(results, op, i, scores[i], start, reqStart, value, found, tm, 1, nil)
			continue
		}
		go c.retryEmit(ctx, op, i, scores[i], start, reqStart, results, err, tm)
	}
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

// retryGet continues a read whose dispatches so far (attempts of them,
// the last failing with lastErr) were unsuccessful, re-routing around
// servers marked down with jittered backoff between attempts — the
// same degradation ladder the pre-batching per-op path used. A read
// that succeeds only here schedules read-repair for the key: the
// failed holder may have missed writes while unreachable.
func (c *Client) retryGet(ctx context.Context, op *sched.Op, lastErr error, lastTm wire.Timing, attempts int) (value []byte, found bool, tm wire.Timing, n int, err error) {
	for {
		if ctx.Err() != nil || errors.Is(lastErr, ErrClientClosed) {
			return nil, false, lastTm, attempts, lastErr
		}
		if attempts > c.cfg.ReadRetries || !errors.Is(lastErr, ErrUnavailable) {
			return nil, false, lastTm, attempts, lastErr
		}
		if serr := c.retrySleep(ctx, attempts-1); serr != nil {
			return nil, false, lastTm, attempts, lastErr
		}
		// Re-route: the failed server is marked down now, so a
		// replicated key lands on a healthy holder; re-stamp tags for
		// the fresh dispatch.
		c.cm.noteRetry()
		rnow := c.now()
		op.Server = c.routeRead(op.Key, op.Demand, rnow)
		core.Tag([]*sched.Op{op}, c.taggingEst(), rnow)
		value, _, found, tm, err = c.tryGet(ctx, op, wire.ConsistencyDefault)
		c.retireRead(op.Server)
		attempts++
		if err == nil {
			c.maybeRepair(op.Key)
			return value, found, tm, attempts, nil
		}
		lastErr, lastTm = err, tm
	}
}

// awaitGet waits out one registered read response and maps its status
// to the read result. Value buffers that are not surfaced to the
// caller return to the shared pool here.
func (c *Client) awaitGet(ctx context.Context, cc *clientConn, id uint64, ch chan wire.Response, op *sched.Op) (value []byte, version uint64, found bool, tm wire.Timing, err error) {
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, 0, false, tm, fmt.Errorf("%w: connection to server %d lost awaiting %q",
				ErrUnavailable, op.Server, op.Key)
		}
		putRespChan(ch)
		tm = resp.Timing
		c.observeService(op.Server, op.Demand, tm, resp.Status, int64(len(resp.Value)))
		switch resp.Status {
		case wire.StatusOK:
			return resp.Value, resp.Version, true, tm, nil
		case wire.StatusNotFound:
			putValueBuf(resp.Value)
			return nil, 0, false, tm, nil
		case wire.StatusDeadlineExceeded:
			putValueBuf(resp.Value)
			return nil, 0, false, tm, fmt.Errorf("kv: server %d shed %q past its deadline: %w",
				op.Server, op.Key, context.DeadlineExceeded)
		default:
			putValueBuf(resp.Value)
			return nil, 0, false, tm, fmt.Errorf("kv: server error for key %q", op.Key)
		}
	case <-ctx.Done():
		cc.unregister(id)
		return nil, 0, false, tm, ctx.Err()
	}
}

// tryGet performs a single dispatch of one read operation; the caller
// owns the selector's in-flight accounting for op.Server. tm carries
// the server-reported timeline whenever a response arrived (including
// not-found and shed responses).
func (c *Client) tryGet(ctx context.Context, op *sched.Op, level wire.Consistency) (value []byte, version uint64, found bool, tm wire.Timing, err error) {
	cc, err := c.conn(op.Server)
	if err != nil {
		if errors.Is(err, ErrClientClosed) {
			return nil, 0, false, tm, err
		}
		return nil, 0, false, tm, fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	id := c.nextID.Add(1)
	ch := cc.register(id)
	req := wire.Request{
		ID:            id,
		Type:          wire.OpGet,
		Key:           op.Key,
		Tags:          wireTags(op),
		DeadlineNanos: deadlineBudget(ctx),
		Consistency:   level,
	}
	if err := cc.writeRequest(&req); err != nil {
		cc.unregister(id)
		c.noteServerFailure(op.Server)
		return nil, 0, false, tm, fmt.Errorf("%w: send to server %d: %w", ErrUnavailable, op.Server, err)
	}
	return c.awaitGet(ctx, cc, id, ch, op)
}

// getFrom performs one direct versioned read against a specific replica
// holder, bypassing selection (used by read-repair to audit every
// holder).
func (c *Client) getFrom(ctx context.Context, server sched.ServerID, key string, level wire.Consistency) replica.ReadResult {
	now := c.now()
	demand, size := c.demandFor(wire.OpGet, key, 0)
	op := &sched.Op{
		Server: server,
		Key:    key,
		Demand: demand,
	}
	op.Tags.SizeBytes = size
	core.Tag([]*sched.Op{op}, c.taggingEst(), now)
	value, version, found, _, err := c.tryGet(ctx, op, level)
	return replica.ReadResult{
		Server: server, Value: value, Version: replica.Version(version),
		Found: found, Err: err,
	}
}

// readRepairTimeout bounds a background repair when the client has no
// configured RequestTimeout.
const readRepairTimeout = 5 * time.Second

// Repair synchronously reconciles key's replica set: it reads every
// holder, finds the newest version, and replays that write onto
// reachable holders that missed it (last-writer-wins, so replaying is
// idempotent). It returns how many replicas were brought up to date; a
// non-nil error reports the first holder that could not be read or
// repaired, alongside whatever repairs did land. With Replicas <= 1
// there is nothing to reconcile.
func (c *Client) Repair(ctx context.Context, key string) (int, error) {
	if c.cfg.Replicas <= 1 {
		return 0, nil
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	holders := c.place.For(key)
	reads := make([]replica.ReadResult, len(holders))
	var wg sync.WaitGroup
	for i, server := range holders {
		i, server := i, server
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads[i] = c.getFrom(ctx, server, key, wire.ConsistencyDefault)
		}()
	}
	wg.Wait()
	var firstErr error
	for _, r := range reads {
		if r.Err != nil {
			firstErr = fmt.Errorf("kv: repair %q: read server %d: %w", key, r.Server, r.Err)
			break
		}
	}
	fixed := 0
	for _, rep := range replica.Repairs(reads) {
		resp, err := c.send(ctx, rep.Server, wire.Request{
			Type: wire.OpPut, Key: key, Value: rep.Value, Version: uint64(rep.Version),
		})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("kv: repair %q: write server %d: %w", key, rep.Server, err)
			}
			continue
		}
		if resp.Status == wire.StatusOK {
			fixed++
		}
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
		timeout := c.cfg.RequestTimeout
		if timeout <= 0 {
			timeout = readRepairTimeout
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
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
	demand, size := c.demandFor(req.Type, req.Key, len(req.Value))
	op := &sched.Op{Server: server, Key: req.Key, Demand: demand}
	op.Tags.SizeBytes = size
	core.Tag([]*sched.Op{op}, c.taggingEst(), c.now())
	cc, err := c.conn(server)
	if err != nil {
		return nil, err
	}
	req.ID = c.nextID.Add(1)
	req.Tags = wireTags(op)
	req.DeadlineNanos = deadlineBudget(ctx)
	ch := cc.register(req.ID)
	if err := cc.writeRequest(&req); err != nil {
		cc.unregister(req.ID)
		c.noteServerFailure(server)
		return nil, fmt.Errorf("%w: send to server %d: %w", ErrUnavailable, server, err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("%w: connection to server %d lost", ErrUnavailable, server)
		}
		putRespChan(ch)
		c.observeService(server, demand, resp.Timing, resp.Status, int64(len(req.Value)))
		switch resp.Status {
		case wire.StatusError:
			return nil, fmt.Errorf("kv: server error for key %q", req.Key)
		case wire.StatusDeadlineExceeded:
			return nil, fmt.Errorf("kv: server %d shed %q past its deadline: %w",
				server, req.Key, context.DeadlineExceeded)
		}
		return &resp, nil
	case <-ctx.Done():
		cc.unregister(req.ID)
		return nil, ctx.Err()
	}
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
// reader goroutine fanning responses out to waiters, and feedback
// observation into the shared estimator.
type clientConn struct {
	client *Client
	server sched.ServerID
	conn   net.Conn

	wmu sync.Mutex
	w   *wire.Writer

	mu      sync.Mutex
	pending map[uint64]chan wire.Response
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
		pending: make(map[uint64]chan wire.Response),
	}
	go cc.readLoop()
	return cc, nil
}

func (cc *clientConn) writeRequest(req *wire.Request) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.w.WriteRequest(req)
}

// writeBatch sends a run of requests as one batch frame.
func (cc *clientConn) writeBatch(reqs []wire.Request) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.w.WriteBatch(reqs)
}

// respChanPool recycles single-response waiter channels. A channel may
// be returned only after its waiter received a response (the readLoop
// has unregistered it, so no further send can race a reuse); channels
// abandoned on timeout or closed by shutdown are never pooled.
var respChanPool = sync.Pool{New: func() any { return make(chan wire.Response, 1) }}

// putRespChan recycles a waiter channel that has delivered.
func putRespChan(ch chan wire.Response) { respChanPool.Put(ch) }

func (cc *clientConn) register(id uint64) chan wire.Response {
	ch := respChanPool.Get().(chan wire.Response)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		close(ch)
		return ch
	}
	cc.pending[id] = ch
	return ch
}

func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	delete(cc.pending, id)
}

// valueFree recycles value byte buffers across the data plane: response
// copies handed from the client readLoop to waiters, server-side store
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
		// (caller timed out and unregistered) costs no allocation, and
		// empty values never do.
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		if !ok {
			continue
		}
		// The reader's value buffer is reused; hand the waiter a copy
		// from the pool.
		var value []byte
		if len(resp.Value) > 0 {
			value = getValueBuf(len(resp.Value))
			copy(value, resp.Value)
		}
		ch <- wire.Response{
			ID: resp.ID, Status: resp.Status, Value: value,
			Feedback: resp.Feedback, Version: resp.Version,
			Timing: resp.Timing,
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
	cc.pending = make(map[uint64]chan wire.Response)
	cc.mu.Unlock()
	cc.wmu.Lock()
	cc.w.Release()
	cc.wmu.Unlock()
	if !errors.Is(cause, ErrClientClosed) {
		cc.client.noteServerFailure(cc.server)
	}
	for _, ch := range pending {
		close(ch)
	}
}

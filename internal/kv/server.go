package kv

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/sizeclass"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// CostModel estimates the service demand of one operation; the live
// server busy-waits this long per operation (scaled by SpeedFactor) so
// scheduling experiments have meaningful service times, mirroring CPU-
// or storage-bound backends. A nil model means operations cost only
// their actual map access.
type CostModel func(op wire.OpType, keyLen, valueLen int) time.Duration

// ServerConfig configures one live key-value server.
type ServerConfig struct {
	// ID is the server's identity on the cluster ring.
	ID sched.ServerID
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Policy builds the scheduling queue fronting the workers
	// (FCFS when nil).
	Policy sched.Factory
	// Workers is the service concurrency (default 1).
	Workers int
	// Cost simulates per-operation service demand (nil = none).
	Cost CostModel
	// SpeedFactor scales service speed: 0.5 halves throughput,
	// emulating a degraded server (default 1.0).
	SpeedFactor float64
	// WALDir, when set, enables the durability subsystem: every applied
	// mutation is appended to a segmented write-ahead log in this
	// directory before the client is acknowledged (per WALSync), startup
	// replays snapshot plus log, and a graceful Close compacts the log
	// into a fresh snapshot. Empty keeps the store in memory only.
	WALDir string
	// WALSync is the log's fsync policy (zero value = fsync before
	// every acknowledgement).
	WALSync wal.SyncPolicy
	// WALSegmentSize caps each log segment file (default 16 MiB).
	WALSegmentSize int64
	// WALWrapFile wraps every segment file the log opens — the hook
	// torn-write and failed-fsync chaos tests (internal/fault) use to
	// corrupt durability without touching real disks.
	WALWrapFile func(wal.File) wal.File
	// SweepInterval is how often expired keys are reclaimed in the
	// background (default 30s; negative disables the janitor).
	SweepInterval time.Duration
	// WrapConn, when set, wraps every accepted connection — the hook
	// fault injection (internal/fault) uses to corrupt, stall, or kill
	// a server's traffic in chaos tests without touching the data path.
	WrapConn func(net.Conn) net.Conn
	// Replication is the cluster's intended replication factor,
	// advertised in stats so operators and tooling can see what R the
	// deployment was provisioned for (default 1). Placement itself is
	// client-side; the server's only replication duty is the versioned
	// store, which is always on.
	Replication int
	// PoolSplit enables the size-class execution split
	// (internal/sizeclass): the fraction of Workers reserved for the
	// small-op pool, in (0, 1). Zero disables the split (one undivided
	// pool, the pre-split behavior). Requires Workers >= 2; the worker
	// partition is rounded so each pool keeps at least one worker.
	PoolSplit float64
	// SizeClass tunes the split's admission classifier (zero value =
	// the sizeclass defaults: learn the 90th-percentile size threshold
	// from a decayed sketch of observed payload sizes).
	SizeClass sizeclass.Config
	// Cluster, when set, enables the gossip-driven cluster fabric:
	// SWIM membership, a dynamic vnode ring, and join/leave key
	// rebalancing (see ClusterConfig). Nil runs the node standalone
	// with a static client-side ring — the pre-fabric behavior.
	Cluster *ClusterConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Policy == nil {
		c.Policy = sched.FCFSFactory
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SpeedFactor <= 0 {
		c.SpeedFactor = 1
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 30 * time.Second
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	return c
}

// Server is one live key-value node: an accept loop feeding a
// policy-ordered operation queue drained by a worker pool.
type Server struct {
	cfg         ServerConfig
	store       *Store
	ln          net.Listener
	start       time.Time
	metrics     *serverMetrics
	wal         *wal.WAL
	walRecovery *wal.RecoveryReport
	// cluster is the gossip fabric runtime (nil when cfg.Cluster is):
	// set once in NewServer before the server is published, read-only
	// after.
	cluster *cluster

	mu     sync.Mutex
	queue  sched.Policy
	closed bool
	conns  map[net.Conn]bool
	// scs registers each connection's serverConn so stats can report
	// per-connection in-flight depth; keyed separately from conns
	// because the serverConn is born in the read loop, after accept.
	scs       map[*serverConn]struct{}
	speedEWMA float64
	served    uint64

	// connsTotal counts accepted connections over the server's life;
	// inflight is ops admitted to the queue but not yet answered. Both
	// feed the stats/metrics saturation readout the load harness uses
	// to tell server overload from connection-scaling limits.
	connsTotal metrics.Counter
	inflight   atomic.Int64

	// split is the size-class pool structure when PoolSplit is enabled
	// (nil otherwise); queue then points at the same object, so every
	// whole-queue path (feedback, stats, admission) works unchanged.
	split        *sizeclass.Queue
	smallWorkers int
	largeWorkers int
	// poolWake replaces wake in split mode: one wake token per pool, so
	// a small-pool wake is never consumed by a large worker that then
	// goes back to sleep (and vice versa).
	poolWake [sizeclass.NumPools]chan struct{}
	// busy counts each pool's workers currently executing an operation
	// (the occupancy surfaced on /stats and /metrics).
	busy [sizeclass.NumPools]atomic.Int32

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// pendingOp carries a queued operation's connection context.
type pendingOp struct {
	conn     *serverConn
	typ      wire.OpType
	key      string
	value    []byte
	id       uint64
	ttl      time.Duration
	oldValue []byte
	version  uint64
	// deadline is the server-clock instant after which the op is shed
	// instead of served (0 = none), anchored at arrival from the
	// client's remaining-budget duration.
	deadline time.Duration
}

// queuedOp bundles an admitted operation's scheduler entry and its
// connection payload into one pooled allocation; workers recycle it
// after the response is handed off. Ops still queued when the server
// closes are simply dropped to the garbage collector.
type queuedOp struct {
	op sched.Op
	p  pendingOp
}

var queuedOpPool = sync.Pool{New: func() any { return new(queuedOp) }}

// releaseOp recycles a served operation: its payload byte buffers go
// back to the value pool (the store copied what it keeps) and the
// combined allocation returns for reuse. Recycling may overwrite the
// op while a DAS queue's lazy aging/FIFO entry still holds the old
// pointer — that is safe because such entries are validated against
// the queue's live map, never by reading the op (see core.DAS).
func releaseOp(qo *queuedOp) {
	putValueBuf(qo.p.value)
	putValueBuf(qo.p.oldValue)
	*qo = queuedOp{}
	queuedOpPool.Put(qo)
}

// serverConn is one accepted connection's response side: workers hand
// finished responses to a per-connection writer goroutine over out;
// the writer encodes every response it can drain in one pass and
// flushes once, so a burst of sibling completions costs one syscall
// instead of one per op.
type serverConn struct {
	conn net.Conn
	out  chan *wire.Response
	// stop is closed by the read loop when the connection's inbound
	// side ends; the writer drains what it can and exits.
	stop chan struct{}
	// dead is closed by the writer on exit so senders never block on a
	// connection that will not write again.
	dead chan struct{}
	// inflight is this connection's admitted-but-unanswered op count,
	// the per-connection saturation gauge the stats document surfaces.
	inflight atomic.Int64
	w        *wire.Writer
}

// respBacklog is the per-connection response channel depth. A full
// channel applies backpressure to workers exactly where the old
// per-response mutex serialized them.
const respBacklog = 256

func newServerConn(conn net.Conn) *serverConn {
	return &serverConn{
		conn: conn,
		out:  make(chan *wire.Response, respBacklog),
		stop: make(chan struct{}),
		dead: make(chan struct{}),
		w:    wire.NewWriter(conn),
	}
}

// send hands one response to the connection's writer goroutine. It
// drops the response if the writer is gone — the client is too, and
// the op's effect on the store stands either way.
func (c *serverConn) send(r *wire.Response) {
	select {
	case c.out <- r:
	case <-c.dead:
	}
}

// respPool recycles response structs between workers and connection
// writers so the steady-state serve path stops allocating one per op.
var respPool = sync.Pool{New: func() any { return new(wire.Response) }}

// maxCoalesce bounds how many responses one flush may carry, so a hot
// connection cannot grow the write buffer without bound or starve its
// peer of latency-sensitive early responses.
const maxCoalesce = 64

// connWriter drains sc.out, encoding responses back-to-back and
// flushing once per drained burst (the syscall coalescing half of the
// batch data plane). It exits on write error or when the read loop
// signals the connection is done.
func (s *Server) connWriter(sc *serverConn) {
	defer s.wg.Done()
	defer close(sc.dead)
	defer sc.w.Release()
	flush := func(frames int) bool {
		if frames == 0 {
			return true
		}
		if err := sc.w.Flush(); err != nil {
			_ = sc.conn.Close()
			return false
		}
		s.metrics.respFlushes.Inc()
		s.metrics.respFrames.Add(uint64(frames))
		return true
	}
	for {
		var resp *wire.Response
		select {
		case resp = <-sc.out:
		case <-sc.stop:
			// Inbound side is gone; best-effort flush of what's queued.
			n := 0
			for {
				select {
				case r := <-sc.out:
					if s.encodeResponse(sc, r) != nil {
						return
					}
					n++
				default:
					flush(n)
					return
				}
			}
		}
		if s.encodeResponse(sc, resp) != nil {
			_ = sc.conn.Close()
			return
		}
		n := 1
	drain:
		for n < maxCoalesce {
			select {
			case r := <-sc.out:
				if s.encodeResponse(sc, r) != nil {
					_ = sc.conn.Close()
					return
				}
				n++
			default:
				break drain
			}
		}
		if !flush(n) {
			return
		}
	}
}

// encodeResponse buffers one response and returns the struct to the
// pool.
func (s *Server) encodeResponse(sc *serverConn, r *wire.Response) error {
	err := sc.w.EncodeResponse(r)
	putValueBuf(r.Value) // always an owned copy; the frame is encoded
	*r = wire.Response{}
	respPool.Put(r)
	return err
}

// NewServer starts listening and serving on cfg.Addr.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.PoolSplit < 0 || cfg.PoolSplit >= 1 {
		return nil, fmt.Errorf("kv: PoolSplit %v outside [0, 1)", cfg.PoolSplit)
	}
	if cfg.PoolSplit > 0 && cfg.Workers < 2 {
		return nil, fmt.Errorf("kv: PoolSplit needs Workers >= 2 (got %d) so each size-class pool keeps a worker", cfg.Workers)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("kv: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(),
		ln:        ln,
		start:     time.Now(),
		metrics:   newServerMetrics(),
		queue:     cfg.Policy(uint64(cfg.ID)),
		conns:     make(map[net.Conn]bool),
		scs:       make(map[*serverConn]struct{}),
		speedEWMA: cfg.SpeedFactor,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if cfg.PoolSplit > 0 {
		s.split = sizeclass.New(cfg.Policy, cfg.SizeClass, uint64(cfg.ID))
		s.queue = s.split
		s.smallWorkers = int(float64(cfg.Workers)*cfg.PoolSplit + 0.5)
		if s.smallWorkers < 1 {
			s.smallWorkers = 1
		}
		if s.smallWorkers > cfg.Workers-1 {
			s.smallWorkers = cfg.Workers - 1
		}
		s.largeWorkers = cfg.Workers - s.smallWorkers
		for p := range s.poolWake {
			s.poolWake[p] = make(chan struct{}, 1)
		}
	}
	if cfg.WALDir != "" {
		w, werr := wal.Open(wal.Options{
			Dir:         cfg.WALDir,
			SegmentSize: cfg.WALSegmentSize,
			Sync:        cfg.WALSync,
			WrapFile:    cfg.WALWrapFile,
		})
		if werr != nil {
			_ = ln.Close()
			return nil, werr
		}
		rep, rerr := w.Recover(s.store.LoadFrom, func(rec wal.Record) error {
			s.store.applyMutation(mutationFromRecord(rec))
			return nil
		})
		if rerr != nil {
			_ = w.Close()
			_ = ln.Close()
			return nil, rerr
		}
		s.wal, s.walRecovery = w, rep
		s.store.SetMutationHook(s.logMutation)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.split != nil {
		for i := 0; i < s.smallWorkers; i++ {
			s.wg.Add(1)
			go s.poolWorker(sizeclass.Small)
		}
		for i := 0; i < s.largeWorkers; i++ {
			s.wg.Add(1)
			go s.poolWorker(sizeclass.Large)
		}
	} else {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	if cfg.SweepInterval > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	if cfg.Cluster != nil {
		// The fabric starts last: joiners stream through the data plane,
		// so the accept loop must already be live.
		if err := s.startCluster(); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// janitor reclaims expired keys periodically until shutdown.
func (s *Server) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.store.Sweep()
		case <-s.done:
			return
		}
	}
}

// mutationFromRecord converts a logged record back into the store
// mutation it captured.
func mutationFromRecord(rec wal.Record) Mutation {
	// A coalesced merge record carries the absolute resulting state
	// (final value, exact version), so replay treats it like the put —
	// or, when the window ended on a delete, the delete — it folds to.
	m := Mutation{
		Key:     rec.Key,
		Value:   rec.Value,
		Version: rec.Version,
		Delete:  rec.Op == wal.OpDelete || (rec.Op == wal.OpMerge && rec.Tombstone),
	}
	if rec.ExpiresAtUnixNano != 0 {
		m.ExpiresAt = time.Unix(0, rec.ExpiresAtUnixNano)
	}
	return m
}

// logMutation is the store's MutationHook when the WAL is enabled: it
// enqueues the mutation — assigning its log sequence while the shard
// lock is still held, so per-key order on disk matches apply order —
// and returns the group-commit ack the store waits on before the
// client sees success.
func (s *Server) logMutation(m Mutation) func() error {
	rec := wal.Record{Key: m.Key, Value: m.Value, Version: m.Version}
	switch {
	case m.Delete:
		rec.Op = wal.OpDelete
		rec.Value = nil
	case m.Merge:
		// Merges log as delta records so a coalescing window can fold a
		// hot counter's increments into one frame; the absolute state
		// (Value/Version) still rides along, keeping replay idempotent.
		rec.Op = wal.OpMerge
		rec.Delta = m.Delta
	default:
		rec.Op = wal.OpPut
	}
	if !m.ExpiresAt.IsZero() {
		rec.ExpiresAtUnixNano = m.ExpiresAt.UnixNano()
	}
	ack, err := s.wal.AppendRecord(rec)
	if err != nil {
		return func() error { return err }
	}
	return ack
}

// WALRecovery returns the startup crash-recovery report (nil when the
// server runs without a write-ahead log).
func (s *Server) WALRecovery() *wal.RecoveryReport { return s.walRecovery }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ID returns the server's ring identity.
func (s *Server) ID() sched.ServerID { return s.cfg.ID }

// Store exposes the backing store (for tests and tooling).
func (s *Server) Store() *Store { return s.store }

// Served returns the number of operations completed.
func (s *Server) Served() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// QueueLen returns the number of operations waiting.
func (s *Server) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// StatsSnapshot returns the server's current statistics document.
func (s *Server) StatsSnapshot() wire.ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked builds the stats document; s.mu must be held. The
// metrics state has its own lock, always acquired after s.mu (never
// the reverse), so the nesting is deadlock-free.
func (s *Server) statsLocked() wire.ServerStats {
	st := wire.ServerStats{
		Server:       int(s.cfg.ID),
		Served:       s.served,
		QueueLen:     s.queue.Len(),
		BacklogNanos: int64(s.queue.BacklogDemand()),
		Speed:        s.speedEWMA,
		Keys:         s.store.Len(),
		UptimeNanos:  int64(time.Since(s.start)),
		Policy:       s.queue.Name(),
		Replication:  s.cfg.Replication,
		ServedByOp:   s.metrics.servedByOp(),
		Shed:         s.metrics.shed.Value(),
		Errors:       s.metrics.errors.Value(),
		Batches:      s.metrics.batches.Value(),
		BatchOps:     s.metrics.batchOps.Value(),
		RespFrames:   s.metrics.respFrames.Value(),
		RespFlushes:  s.metrics.respFlushes.Value(),
		DemandError:  s.metrics.demandErrorSummary(),
		OpenConns:    len(s.conns),
		ConnsTotal:   s.connsTotal.Value(),
		// One reader plus one writer goroutine per open connection.
		ConnGoroutines: 2 * len(s.conns),
		Goroutines:     runtime.NumGoroutine(),
		InFlight:       s.inflight.Load(),
	}
	for sc := range s.scs {
		if n := sc.inflight.Load(); n > st.ConnInFlightMax {
			st.ConnInFlightMax = n
		}
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &wire.WALStats{
			Segments:     ws.Segments,
			Bytes:        ws.Bytes,
			LastSeq:      ws.LastSeq,
			SnapshotSeq:  ws.SnapshotSeq,
			Appended:     ws.Appended,
			Fsyncs:       ws.Fsyncs,
			Policy:       ws.Policy,
			FsyncLatency: durationSummary(ws.FsyncLatency),
			BatchRecords: valueSummary(ws.BatchRecords),
		}
		if ws.CoalesceWindows > 0 {
			st.WAL.CoalescedOps = ws.CoalescedOps
			st.WAL.CoalescedRecords = ws.CoalescedRecords
			st.WAL.CoalesceWindows = ws.CoalesceWindows
			st.WAL.WindowKeys = valueSummary(ws.WindowKeys)
		}
	}
	if dr, ok := s.queue.(sched.DecisionReporter); ok {
		d := dr.Decisions()
		st.Decisions = &wire.SchedDecisions{
			Pushed:       d.Pushed,
			SRPTFirst:    d.SRPTFirst,
			LRPTDemoted:  d.LRPTDemoted,
			NearBoundary: d.NearBoundary,
			Promotions:   d.Promotions,
		}
	}
	if s.split != nil {
		st.Pools = s.poolStatsLocked()
	}
	return st
}

// poolStatsLocked snapshots the size-class split; s.mu must be held.
func (s *Server) poolStatsLocked() *wire.PoolStats {
	return &wire.PoolStats{
		ThresholdBytes:    s.split.Threshold(),
		SmallWorkers:      s.smallWorkers,
		LargeWorkers:      s.largeWorkers,
		SmallQueueLen:     s.split.LenPool(sizeclass.Small),
		LargeQueueLen:     s.split.LenPool(sizeclass.Large),
		SmallBacklogNanos: int64(s.split.BacklogPool(sizeclass.Small)),
		LargeBacklogNanos: int64(s.split.BacklogPool(sizeclass.Large)),
		SmallBusy:         int(s.busy[sizeclass.Small].Load()),
		LargeBusy:         int(s.busy[sizeclass.Large].Load()),
		SmallRouted:       s.split.Routed(sizeclass.Small),
		LargeRouted:       s.split.Routed(sizeclass.Large),
		Stolen:            s.split.Stolen(),
	}
}

// poolStats returns the size-class split snapshot (nil when the server
// runs one undivided pool) — the metrics exposition's view.
func (s *Server) poolStats() *wire.PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.split == nil {
		return nil
	}
	return s.poolStatsLocked()
}

// decisionStats returns the queue's scheduling decision counters (ok
// false when the policy does not report them).
func (s *Server) decisionStats() (sched.DecisionStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.queue.(sched.DecisionReporter)
	if !ok {
		return sched.DecisionStats{}, false
	}
	return dr.Decisions(), true
}

// Close stops accepting, disconnects clients, and waits for workers.
// On a clustered node Close stops the gossip agent without announcing a
// departure — peers detect the silence via suspicion, exactly like a
// failure. The graceful path is Leave then Close.
func (s *Server) Close() error {
	if s.cluster != nil {
		s.cluster.shutdown()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	close(s.done)
	s.wg.Wait()
	if s.wal != nil {
		// A graceful shutdown compacts the log into a snapshot — the
		// next start loads one file instead of replaying every segment —
		// then closes it, flushing and fsyncing whatever the group
		// committer still holds.
		if _, cerr := s.wal.Compact(s.store.SaveTo); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Crash tears the server down like a kill -9: the write-ahead log is
// abandoned (no flush, no final fsync — only bytes already handed to
// the OS survive), connections drop, and no snapshot or compaction
// runs. It exists so crash-recovery tests can exercise the real
// recovery path in-process; production shutdown is Close.
func (s *Server) Crash() {
	if s.cluster != nil {
		// No Leave, no goodbye: peers must discover the death through
		// the failure detector, the scenario the chaos tests exercise.
		s.cluster.shutdown()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.wal != nil {
		s.wal.Abandon() // unblocks workers waiting on group-commit acks
	}
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	close(s.done)
	s.wg.Wait()
}

func (s *Server) now() time.Duration { return time.Since(s.start) }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

func (s *Server) readLoop(conn net.Conn) {
	defer s.wg.Done()
	sc := newServerConn(conn)
	s.mu.Lock()
	s.scs[sc] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.connWriter(sc)
	r := wire.NewReader(conn)
	defer func() {
		close(sc.stop) // retire the writer goroutine
		r.Release()
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.scs, sc)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	var reqs []wire.Request
	var ops []*sched.Op
	for {
		if _, err := r.ReadRequests(&reqs); err != nil {
			return // EOF, peer reset, or protocol error: drop the conn
		}
		ops = s.enqueueBatch(sc, reqs, ops[:0])
	}
}

// minDemand floors operation demand so queue backlog stays meaningful
// even for un-costed operations.
const minDemand = time.Microsecond

// buildOp converts one decoded request into a queued operation,
// copying the payload byte fields out of the reader's reused buffers.
func (s *Server) buildOp(sc *serverConn, req *wire.Request, now time.Duration) *sched.Op {
	demand := time.Duration(req.Tags.DemandNanos)
	if s.cfg.Cost != nil {
		if d := s.cfg.Cost(req.Type, len(req.Key), len(req.Value)); d > demand {
			demand = d
		}
	}
	if demand < minDemand {
		demand = minDemand
	}
	var value []byte
	if len(req.Value) > 0 {
		value = getValueBuf(len(req.Value))
		copy(value, req.Value)
	}
	var oldValue []byte
	if len(req.OldValue) > 0 {
		oldValue = getValueBuf(len(req.OldValue))
		copy(oldValue, req.OldValue)
	}
	// The op's payload size drives size-class admission: a put's is its
	// value; a get's is the client's size hint, or — when the pool is
	// split and no hint came — the stored value's actual length, which
	// the server alone knows before service. That lookup is what lets
	// the split protect small ops from clients that cannot predict
	// response sizes; it also re-floors the demand tag so the pool's
	// internal ordering sees the transfer the op implies.
	size := int64(len(req.Value))
	if size == 0 {
		size = int64(req.Tags.SizeHintBytes)
	}
	if s.split != nil {
		if size == 0 && req.Type == wire.OpGet {
			size = int64(s.store.ValueLen(req.Key))
		}
		if size > 0 && s.cfg.Cost != nil {
			if d := s.cfg.Cost(req.Type, len(req.Key), int(size)); d > demand {
				demand = d
			}
		}
	}
	qo := queuedOpPool.Get().(*queuedOp)
	qo.op = sched.Op{
		Server: s.cfg.ID,
		Key:    req.Key,
		Demand: demand,
		Tags: sched.Tags{
			IssuedAt:         now,
			Fanout:           int(req.Tags.Fanout),
			DemandBottleneck: time.Duration(req.Tags.BottleneckNanos),
			ScaledDemand:     demand,
			RemainingTime:    time.Duration(req.Tags.RemainingNanos),
			ExpectedFinish:   now,
			RequestFinish:    now + time.Duration(req.Tags.SlackNanos),
			SizeBytes:        size,
		},
		Payload: qo,
	}
	qo.p = pendingOp{
		conn: sc, typ: req.Type, key: req.Key, value: value,
		id: req.ID, ttl: time.Duration(req.TTLNanos),
		oldValue: oldValue,
		deadline: arrivalDeadline(now, req.DeadlineNanos),
		version:  req.Version,
	}
	return &qo.op
}

// enqueueBatch admits one frame's operations — a multiget's whole
// per-server batch — into the scheduling queue under a single lock
// acquisition, with payload copies built outside the critical section.
// When the queue is batch-capable and the frame's tags are coherent
// (one RemainingNanos/SlackNanos for the whole frame, which a
// batch-aware tagger guarantees), the frame is admitted as a single
// scheduling unit so per-op estimate noise can never shuffle it
// through the queue. It returns the reusable op scratch slice.
func (s *Server) enqueueBatch(sc *serverConn, reqs []wire.Request, ops []*sched.Op) []*sched.Op {
	if len(reqs) == 0 {
		return ops
	}
	now := s.now()
	for i := range reqs {
		ops = append(ops, s.buildOp(sc, &reqs[i], now))
	}
	if len(reqs) > 1 {
		s.metrics.batches.Inc()
		s.metrics.batchOps.Add(uint64(len(reqs)))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ops
	}
	if bq, ok := s.queue.(sched.BatchPolicy); ok && len(reqs) > 1 && wire.CoherentTags(reqs) {
		bq.PushBatch(ops, now)
	} else {
		for _, op := range ops {
			s.queue.Push(op, now)
		}
	}
	s.mu.Unlock()
	s.inflight.Add(int64(len(reqs)))
	sc.inflight.Add(int64(len(reqs)))
	s.wakeWorkers()
	return ops
}

// wakeWorkers hands out wake tokens after an enqueue. In split mode
// both pools are woken: the frame may hold either class, and an idle
// large pool wants to hear about small work it could steal — a
// spurious wake costs one queue probe, a missed one strands work.
func (s *Server) wakeWorkers() {
	if s.split == nil {
		select {
		case s.wake <- struct{}{}:
		default:
		}
		return
	}
	for p := range s.poolWake {
		select {
		case s.poolWake[p] <- struct{}{}:
		default:
		}
	}
}

// arrivalDeadline anchors a client-supplied remaining-time budget to
// the server clock (0 budget = no deadline).
func arrivalDeadline(now time.Duration, budgetNanos int64) time.Duration {
	if budgetNanos <= 0 {
		return 0
	}
	return now + time.Duration(budgetNanos)
}

var errServerClosed = errors.New("kv: server closed")

// popNext blocks until an operation is available or the server closes.
func (s *Server) popNext() (*sched.Op, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errServerClosed
		}
		op := s.queue.Pop(s.now())
		s.mu.Unlock()
		if op != nil {
			return op, nil
		}
		select {
		case <-s.wake:
		case <-s.done:
			return nil, errServerClosed
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		op, err := s.popNext()
		if err != nil {
			return
		}
		s.serve(op)
		// Chain wakeups: more work may be queued while all workers
		// were busy and the wake token was consumed.
		s.mu.Lock()
		pending := s.queue.Len() > 0
		s.mu.Unlock()
		if pending {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
}

// popNextPool blocks until the pool (or, for a stealing large worker,
// the small pool) has work, or the server closes.
func (s *Server) popNextPool(pool sizeclass.Pool) (*sched.Op, error) {
	steal := pool == sizeclass.Large
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errServerClosed
		}
		op := s.split.PopPool(pool, s.now(), steal)
		s.mu.Unlock()
		if op != nil {
			return op, nil
		}
		select {
		case <-s.poolWake[pool]:
		case <-s.done:
			return nil, errServerClosed
		}
	}
}

// poolWorker is one size-class pool's service loop: small workers serve
// only small-pool ops (the protection the split exists for); large
// workers serve their own pool first and steal small work when idle so
// the split never leaves capacity unused that an undivided pool would
// have spent.
func (s *Server) poolWorker(pool sizeclass.Pool) {
	defer s.wg.Done()
	for {
		op, err := s.popNextPool(pool)
		if err != nil {
			return
		}
		s.busy[pool].Add(1)
		s.serve(op)
		s.busy[pool].Add(-1)
		// Chain wakeups, pool-aware: small work re-wakes both pools
		// (large workers may be the only idle ones), large work only
		// its own.
		s.mu.Lock()
		small := s.split.LenPool(sizeclass.Small) > 0
		large := s.split.LenPool(sizeclass.Large) > 0
		s.mu.Unlock()
		if small {
			select {
			case s.poolWake[sizeclass.Small] <- struct{}{}:
			default:
			}
		}
		if small || large {
			select {
			case s.poolWake[sizeclass.Large] <- struct{}{}:
			default:
			}
		}
	}
}

// serve executes one operation and writes its response with feedback
// and its server-side timeline (queue wait, service time, scheduling
// class) for client-side straggler attribution.
func (s *Server) serve(op *sched.Op) {
	qo, ok := op.Payload.(*queuedOp)
	if !ok {
		return
	}
	p := &qo.p
	began := time.Now()
	waited := s.now() - op.Enqueued
	if waited < 0 {
		waited = 0
	}
	resp := respPool.Get().(*wire.Response)
	resp.ID, resp.Status = p.id, wire.StatusOK
	resp.Timing = wire.Timing{
		WaitNanos:  int64(waited),
		SchedClass: uint8(op.Class),
	}
	if p.deadline > 0 && s.now() > p.deadline {
		// The client has already given up on this op: shed it without
		// touching the store or burning service time, so live capacity
		// goes to requests that can still meet their deadlines.
		resp.Status = wire.StatusDeadlineExceeded
		s.metrics.observeShed(p.typ, waited)
		s.finishResponse(p, resp)
		releaseOp(qo)
		return
	}
	switch p.typ {
	case wire.OpGet:
		// The response value rides a pooled buffer; the connection
		// writer recycles it after encoding.
		v, ver, found := s.store.GetVersionedAppend(p.key, getValueBuf(0))
		if found {
			resp.Value = v
			resp.Version = ver
		} else {
			putValueBuf(v)
			resp.Status = wire.StatusNotFound
		}
	case wire.OpPut:
		// A stale versioned put is not an error: last-writer-wins means
		// the caller's write was simply superseded; the response carries
		// the winning version either way.
		_, resp.Version = s.store.PutVersioned(p.key, p.value, p.ttl, p.version)
	case wire.OpDelete:
		if !s.store.Delete(p.key) {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpCAS:
		if !s.store.CompareAndSwap(p.key, p.oldValue, p.value) {
			resp.Status = wire.StatusCASMismatch
		}
	case wire.OpIncr:
		// The request value is the signed delta as 8 big-endian bytes;
		// the response value is the resulting total in ASCII decimal,
		// the representation a GET of the same key returns.
		if len(p.value) != 8 {
			resp.Status = wire.StatusError
			break
		}
		delta := int64(binary.BigEndian.Uint64(p.value))
		total, ver, merr := s.store.Merge(p.key, delta, p.ttl)
		if merr != nil {
			resp.Status = wire.StatusError
			break
		}
		resp.Value = strconv.AppendInt(getValueBuf(0), total, 10)
		resp.Version = ver
	case wire.OpStats:
		// Filled below under the stats lock.
	case wire.OpMembers:
		s.serveMembers(resp)
	case wire.OpHandoff:
		s.serveHandoff(p, resp)
	default:
		resp.Status = wire.StatusError
	}
	if isMutation(p.typ) && resp.Status != wire.StatusError {
		if derr := s.store.DurabilityErr(); derr != nil {
			// Fail stop: some mutation's log append failed, so the map
			// may be ahead of disk. Refuse every write from here on
			// rather than acknowledge data a restart would lose.
			resp.Status = wire.StatusError
		}
	}
	if s.cfg.Cost != nil {
		// The payload that moved prices the op: a get costs the bytes it
		// returns, a mutation the bytes it wrote.
		vlen := len(p.value)
		if n := len(resp.Value); n > vlen {
			vlen = n
		}
		s.burn(time.Duration(float64(s.cfg.Cost(p.typ, len(p.key), vlen)) / s.cfg.SpeedFactor))
	}
	elapsed := time.Since(began)
	resp.Timing.ServiceNanos = int64(elapsed)
	if resp.Status == wire.StatusError {
		s.metrics.errors.Inc()
	}
	s.metrics.observe(p.typ, waited, elapsed, op.Demand)

	s.mu.Lock()
	if s.cfg.Cost != nil && elapsed > 0 {
		observed := float64(op.Demand) / float64(elapsed)
		s.speedEWMA += 0.2 * (observed - s.speedEWMA)
	}
	if s.split != nil {
		// Ground truth for the admission classifier: the payload that
		// actually moved, which for a hint-less get is the size the
		// admission decision could only guess at.
		size := len(resp.Value)
		if size == 0 {
			size = len(p.value)
		}
		if size > 0 {
			s.split.ObserveSize(int64(size))
		}
	}
	s.mu.Unlock()
	s.finishResponse(p, resp)
	releaseOp(qo)
}

// finishResponse stamps piggybacked feedback, counts the op, and hands
// the response to the connection's writer goroutine (which owns the
// response from here and recycles it after encoding). A dead
// connection drops the response; the op's effect on the store stands
// either way.
func (s *Server) finishResponse(p *pendingOp, resp *wire.Response) {
	s.mu.Lock()
	resp.Feedback = wire.Feedback{
		QueueLen:     uint32(s.queue.Len()),
		BacklogNanos: int64(s.queue.BacklogDemand()),
		SpeedMilli:   uint32(s.speedEWMA * 1000),
	}
	s.served++
	if p.typ == wire.OpStats && resp.Status == wire.StatusOK {
		if b, err := json.Marshal(s.statsLocked()); err == nil {
			resp.Value = b
		} else {
			resp.Status = wire.StatusError
		}
	}
	s.mu.Unlock()
	s.inflight.Add(-1)
	p.conn.inflight.Add(-1)
	p.conn.send(resp)
}

// burn consumes about d of wall time. Sleeping models I/O-bound
// backends; granularity is fine for the millisecond-scale demands the
// experiments use.
func (s *Server) burn(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

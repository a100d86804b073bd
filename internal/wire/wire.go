// Package wire defines the binary protocol of the live key-value store:
// length-prefixed frames carrying per-operation requests (with DAS
// scheduling tags) and responses (with piggybacked feedback).
//
// Frame layout: a 4-byte big-endian payload length, then the payload.
// Payload fields use fixed-width big-endian integers and length-prefixed
// byte strings. Every payload leads with the protocol version byte
// (always Version; decoders reject any other) and a kind byte.
//
// Batch request frames carry every operation of a multiget (or
// multiset) bound for one server, so the transport pays one syscall per
// destination instead of one per operation. Responses stay per-op so
// the server's scheduler can reorder them freely.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Version is the protocol version byte every frame carries; decoders
// reject frames with any other value. It is 4 because the retired
// layouts 2 and 3 used the lower values.
const Version = 4

// MaxFrameSize bounds a frame payload (16 MiB) to protect servers from
// malformed or hostile length prefixes.
const MaxFrameSize = 16 << 20

// MaxBatchOps bounds the operation count of one batch frame. Clients
// split larger multigets into several frames; decoders reject frames
// claiming more.
const MaxBatchOps = 4096

// Op codes.
type OpType uint8

// Operation types. PUT carries a value; GET and DELETE only a key;
// STATS ignores the key and returns a JSON server-statistics document
// in the response value; CAS carries both the expected old value
// (OldValue) and the replacement (Value).
const (
	OpGet OpType = iota + 1
	OpPut
	OpDelete
	OpStats
	OpCAS
	// OpMembers ignores the key and returns a JSON MembersDoc in the
	// response value — the gossip control plane's view of the cluster,
	// served from the data plane so clients and kvctl need no UDP
	// access.
	OpMembers
	// OpHandoff streams one chunk of a shard's owned range during
	// join-time rebalancing: the request value carries a JSON
	// HandoffRequest cursor, the response value a HandoffHeader line
	// followed by store snapshot records (the WAL snapshot format).
	OpHandoff
	// OpIncr atomically adds a signed delta to an integer-valued
	// key: the request value carries the delta as 8 big-endian
	// two's-complement bytes, the response value the resulting total in
	// ASCII decimal (the same representation GET returns), with the new
	// version. An absent key counts from zero; a non-integer value fails
	// the op without mutating.
	OpIncr
)

// String returns the op's metric-label name ("get", "put", ...).
func (t OpType) String() string {
	switch t {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	case OpCAS:
		return "cas"
	case OpMembers:
		return "members"
	case OpHandoff:
		return "handoff"
	case OpIncr:
		return "incr"
	default:
		return fmt.Sprintf("op(%d)", uint8(t))
	}
}

// Consistency is a per-request replica-coordination level. Placement is
// client-side, so the level primarily steers the client's fan-out (how
// many of a key's R holders must answer); it is carried on the wire so
// servers can account per-level traffic and so operators can read a
// request's intent off a capture.
type Consistency uint8

// Consistency levels. The zero value defers to the configured default.
const (
	// ConsistencyDefault defers to the client's (or discovered server's)
	// configured default level.
	ConsistencyDefault Consistency = iota
	// ConsistencyOne acks after 1 replica responds: fastest, weakest.
	ConsistencyOne
	// ConsistencyQuorum acks after floor(R/2)+1 replicas respond:
	// read-your-writes when R(read) + W(write) > N holders.
	ConsistencyQuorum
	// ConsistencyAll acks after every holder responds: strongest,
	// unavailable under any single holder failure.
	ConsistencyAll
)

// String returns the level's flag-value name ("one", "quorum", "all").
func (c Consistency) String() string {
	switch c {
	case ConsistencyDefault:
		return "default"
	case ConsistencyOne:
		return "one"
	case ConsistencyQuorum:
		return "quorum"
	case ConsistencyAll:
		return "all"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// ParseConsistency maps a flag value ("one", "quorum", "all", or "" /
// "default") to its level.
func ParseConsistency(s string) (Consistency, error) {
	switch s {
	case "", "default":
		return ConsistencyDefault, nil
	case "one", "ONE":
		return ConsistencyOne, nil
	case "quorum", "QUORUM":
		return ConsistencyQuorum, nil
	case "all", "ALL":
		return ConsistencyAll, nil
	default:
		return 0, fmt.Errorf("wire: unknown consistency level %q (want one, quorum, or all)", s)
	}
}

// Status codes.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusError
	// StatusCASMismatch reports a compare-and-swap whose expected old
	// value did not match the stored one.
	StatusCASMismatch
	// StatusDeadlineExceeded reports an operation the server shed
	// without executing because its client-supplied deadline had
	// already passed when it reached a worker (load shedding of doomed
	// work).
	StatusDeadlineExceeded
)

// Message kinds.
const (
	kindRequest  = 1
	kindResponse = 2
	// kindBatch is a request frame carrying several operations bound
	// for the same server.
	kindBatch = 3
)

// Errors surfaced by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadMessage    = errors.New("wire: malformed message")
	ErrBatchTooLarge = errors.New("wire: batch exceeds operation limit")
)

// Tags is the scheduling metadata carried by every operation. Times are
// durations (nanoseconds), deliberately clock-free so client and server
// clocks never need to agree.
type Tags struct {
	// RemainingNanos is the request's speed-scaled bottleneck
	// processing time (DAS's SRPT-first key).
	RemainingNanos int64
	// SlackNanos is how long this op can be deferred before delaying
	// its request (DAS's LRPT-last key).
	SlackNanos int64
	// BottleneckNanos is the request's static demand bottleneck
	// (Rein-SBF's key).
	BottleneckNanos int64
	// DemandNanos is this op's estimated service demand.
	DemandNanos int64
	// Fanout is the request's operation count.
	Fanout uint32
	// SizeHintBytes is the op's expected payload size: the value length
	// for puts, the client's expected value size for gets (0 = unknown).
	// It is what lets the server's size-class admission classifier keep
	// a large get out of the small-op pool before the store has even
	// looked the key up.
	SizeHintBytes uint32
}

// CoherentTags reports whether every request of a batch frame carries
// the same scheduling decision inputs — one RemainingNanos (the
// SRPT-first key) and one SlackNanos (the LRPT-last key) for the whole
// frame. A batch-aware tagger (core.Tag grouping ops by server)
// produces coherent frames by construction; coherence is what lets the
// server admit the frame as a single scheduling unit instead of N
// independently ordered operations.
func CoherentTags(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Tags.RemainingNanos != reqs[0].Tags.RemainingNanos ||
			reqs[i].Tags.SlackNanos != reqs[0].Tags.SlackNanos {
			return false
		}
	}
	return true
}

// Request is one key-value operation sent to a server.
type Request struct {
	ID    uint64
	Type  OpType
	Key   string
	Value []byte
	Tags  Tags
	// TTLNanos expires a PUT after this duration (0 = never).
	TTLNanos int64
	// OldValue is the expected current value for CAS operations (empty
	// means "expect the key to be absent").
	OldValue []byte
	// DeadlineNanos is the operation's remaining time budget at send
	// time (0 = none). Carried as a duration, not an instant, so client
	// and server clocks never need to agree; the server anchors it to
	// its own arrival clock and sheds the op with
	// StatusDeadlineExceeded if the budget is exhausted before service.
	DeadlineNanos int64
	// Version is the last-writer-wins tag of a replicated PUT (0 =
	// unversioned): the server applies the write only if it is not
	// older than the version it holds, making write fan-out and
	// read-repair idempotent and convergent.
	Version uint64
	// Consistency is the operation's replica-coordination level (zero
	// means the configured default).
	Consistency Consistency
}

// Feedback is the server-state snapshot piggybacked on every response.
type Feedback struct {
	QueueLen     uint32
	BacklogNanos int64
	// SpeedMilli is the server's measured speed in thousandths of
	// nominal (1000 = nominal).
	SpeedMilli uint32
}

// MilliSpeed converts a speed (1.0 = nominal) to its SpeedMilli form,
// saturating at the field's range instead of wrapping: a wrapped speed
// would tell the client a fast server is nearly stopped.
func MilliSpeed(speed float64) uint32 {
	m := speed * 1000
	switch {
	case m >= math.MaxUint32:
		return math.MaxUint32
	case m > 0:
		return uint32(m)
	}
	return 0
}

// Timing is the server-side timeline of one operation, reported on its
// response so clients can attribute request latency to queueing versus
// service — and flag the straggler of a multiget — without any extra
// RPCs. Like Tags, the fields are durations, never instants, so client
// and server clocks need not agree.
type Timing struct {
	// WaitNanos is how long the op sat in the scheduling queue
	// (arrival to service start).
	WaitNanos int64
	// ServiceNanos is how long service execution took. Zero for shed
	// operations (they never reach the store).
	ServiceNanos int64
	// SchedClass is the serving policy's classification of the op —
	// values mirror sched.Class (0 = the policy reported none).
	SchedClass uint8
}

// Response answers one Request.
type Response struct {
	ID       uint64
	Status   Status
	Value    []byte
	Feedback Feedback
	// Version is the stored version of the key a GET returned (or a
	// PUT resulted in); 0 for unversioned entries and non-data ops.
	Version uint64
	// Timing is the operation's server-side service timeline.
	Timing Timing
}

// ServerStats is the JSON document returned for OpStats requests.
type ServerStats struct {
	Server       int     `json:"server"`
	Served       uint64  `json:"served"`
	QueueLen     int     `json:"queueLen"`
	BacklogNanos int64   `json:"backlogNanos"`
	Speed        float64 `json:"speed"`
	Keys         int     `json:"keys"`
	UptimeNanos  int64   `json:"uptimeNanos"`
	Policy       string  `json:"policy"`
	// Replication is the replication factor the node was provisioned
	// for (informational; placement is client-side).
	Replication int `json:"replication,omitempty"`
	// ServedByOp breaks Served down by operation type ("get", "put",
	// "delete", "stats", "cas").
	ServedByOp map[string]uint64 `json:"servedByOp,omitempty"`
	// Shed counts operations dropped past their client deadline
	// without service (load shedding of doomed work).
	Shed uint64 `json:"shed,omitempty"`
	// Batches counts multi-operation request frames admitted; BatchOps
	// is the total operations they carried. BatchOps/Batches is the
	// mean admission batch width — how much per-frame and per-lock
	// overhead the batch data plane is amortizing.
	Batches  uint64 `json:"batches,omitempty"`
	BatchOps uint64 `json:"batchOps,omitempty"`
	// RespFrames counts response frames written and RespFlushes the
	// transport flushes (syscalls) that carried them;
	// RespFrames/RespFlushes is the flush coalescing factor.
	RespFrames  uint64 `json:"respFrames,omitempty"`
	RespFlushes uint64 `json:"respFlushes,omitempty"`
	// Errors counts operations answered with StatusError.
	Errors uint64 `json:"errors,omitempty"`
	// Connection-scaling gauges: OpenConns is the live connection
	// count, ConnsTotal the accepted-connection total over the
	// server's life, ConnGoroutines the goroutines servicing those
	// connections (one reader + one writer each), and Goroutines the
	// whole process's goroutine count at snapshot time.
	OpenConns      int    `json:"openConns,omitempty"`
	ConnsTotal     uint64 `json:"connsTotal,omitempty"`
	ConnGoroutines int    `json:"connGoroutines,omitempty"`
	Goroutines     int    `json:"goroutines,omitempty"`
	// InFlight is operations admitted to the queue but not yet
	// answered; ConnInFlightMax is the largest single connection's
	// share — together they say whether saturation is spread across
	// the pool or concentrated on a few connections.
	InFlight        int64 `json:"inFlight,omitempty"`
	ConnInFlightMax int64 `json:"connInFlightMax,omitempty"`
	// Decisions summarizes the scheduling policy's decision counters
	// (absent when the policy does not report them; only DAS does).
	Decisions *SchedDecisions `json:"decisions,omitempty"`
	// DemandError summarizes |actual service time − tagged demand
	// estimate| per served op: how well the client-side demand model
	// (the estimator's input) matches reality on this server.
	DemandError *DurationSummary `json:"demandError,omitempty"`
	// WAL reports the durability subsystem's state (absent when the
	// server runs without a write-ahead log).
	WAL *WALStats `json:"wal,omitempty"`
	// Pools reports the size-class execution split (absent when the
	// server runs one undivided worker pool).
	Pools *PoolStats `json:"pools,omitempty"`
}

// MembersDoc is the JSON document returned for OpMembers requests: the
// answering node's gossip view of the cluster plus its own rebalance
// lifecycle state.
type MembersDoc struct {
	// Self is the answering server's ID.
	Self int `json:"self"`
	// Lifecycle is the answering node's join lifecycle: "static" (no
	// gossip configured), "pending", "streaming", or "ready".
	Lifecycle string `json:"lifecycle"`
	// Members is the gossip table, sorted by ID. Empty when the node
	// runs statically configured (no gossip).
	Members []MemberInfo `json:"members,omitempty"`
}

// MemberInfo is one member row of a MembersDoc.
type MemberInfo struct {
	ID int `json:"id"`
	// GossipAddr is the member's UDP gossip endpoint, DataAddr its kv
	// TCP endpoint.
	GossipAddr string `json:"gossipAddr"`
	DataAddr   string `json:"dataAddr"`
	// State is the liveness verdict ("alive", "suspect", "dead", "left").
	State string `json:"state"`
	// Incarnation is the member's self-asserted epoch.
	Incarnation uint64 `json:"incarnation"`
	// Ready reports the member finished streaming its owned ranges.
	Ready bool `json:"ready"`
}

// HandoffRequest is the JSON request value of an OpHandoff operation: a
// cursor over one store shard, filtered to keys the requesting server
// owns under the answering server's current ring.
type HandoffRequest struct {
	// Shard is the store shard index being drained.
	Shard int `json:"shard"`
	// After resumes the scan strictly after this key ("" = shard start).
	After string `json:"after,omitempty"`
	// For is the requesting server's ID; the responder includes only
	// keys that server holds (primary or replica) under its ring.
	For int `json:"for"`
}

// HandoffHeader is the first JSON line of an OpHandoff response value;
// store snapshot records (one JSON object per line, the WAL snapshot
// format) follow it.
type HandoffHeader struct {
	// More reports the shard scan is not finished; resume with
	// After=Next.
	More bool `json:"more"`
	// Next is the resume cursor when More is set.
	Next string `json:"next,omitempty"`
	// Count is the number of records following the header.
	Count int `json:"count"`
}

// PoolStats is the size-class split's section of the stats document:
// per-pool queue depth, backlog, worker occupancy, and the admission
// classifier's routing decisions.
type PoolStats struct {
	// ThresholdBytes is the classifier's current small/large boundary.
	ThresholdBytes int64 `json:"thresholdBytes"`
	// SmallWorkers and LargeWorkers are the static worker partition.
	SmallWorkers int `json:"smallWorkers"`
	LargeWorkers int `json:"largeWorkers"`
	// SmallQueueLen/LargeQueueLen are the per-pool queue depths.
	SmallQueueLen int `json:"smallQueueLen"`
	LargeQueueLen int `json:"largeQueueLen"`
	// SmallBacklogNanos/LargeBacklogNanos are the per-pool queued
	// service demands.
	SmallBacklogNanos int64 `json:"smallBacklogNanos"`
	LargeBacklogNanos int64 `json:"largeBacklogNanos"`
	// SmallBusy/LargeBusy are the workers of each pool currently
	// executing an operation (occupancy).
	SmallBusy int `json:"smallBusy"`
	LargeBusy int `json:"largeBusy"`
	// SmallRouted/LargeRouted count admission routing decisions; Stolen
	// counts small-pool ops drained by an idle large pool through the
	// work-stealing path.
	SmallRouted uint64 `json:"smallRouted"`
	LargeRouted uint64 `json:"largeRouted"`
	Stolen      uint64 `json:"stolen"`
}

// WALStats is the write-ahead log's section of the stats document.
type WALStats struct {
	// Segments counts live log segment files (sealed plus active).
	Segments int `json:"segments"`
	// Bytes is the byte total across live segments.
	Bytes int64 `json:"bytes"`
	// LastSeq is the highest log sequence number assigned.
	LastSeq uint64 `json:"lastSeq"`
	// SnapshotSeq is the sequence covered by the newest on-disk
	// snapshot (0 = no snapshot yet).
	SnapshotSeq uint64 `json:"snapshotSeq,omitempty"`
	// Appended counts records accepted since the log opened.
	Appended uint64 `json:"appended"`
	// Fsyncs counts fsync calls on the append path since open.
	Fsyncs uint64 `json:"fsyncs"`
	// Policy is the sync policy string ("always", "batch:2ms", "none").
	Policy string `json:"policy"`
	// FsyncLatency is the append-path fsync latency distribution.
	FsyncLatency *DurationSummary `json:"fsyncLatency,omitempty"`
	// BatchRecords is the group-commit batch size distribution —
	// records persisted per committer write; the mean is the fsync
	// amortization factor.
	BatchRecords *ValueSummary `json:"batchRecords,omitempty"`
	// CoalescedOps / CoalescedRecords / CoalesceWindows describe the
	// coalesce sync policy's work: mutations folded into per-key
	// accumulators, records those accumulators flushed to disk, and
	// commit windows closed. Ops/Records is the write amplification
	// saved; all zero under the other policies.
	CoalescedOps     uint64 `json:"coalescedOps,omitempty"`
	CoalescedRecords uint64 `json:"coalescedRecords,omitempty"`
	CoalesceWindows  uint64 `json:"coalesceWindows,omitempty"`
	// WindowKeys is the distinct-keys-per-window distribution under
	// coalesce — the I in the bytes-scale-with-I claim.
	WindowKeys *ValueSummary `json:"windowKeys,omitempty"`
}

// ValueSummary is DurationSummary's unit-less sibling for
// distributions that are counts rather than times.
type ValueSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SchedDecisions mirrors sched.DecisionStats in the stats document.
type SchedDecisions struct {
	Pushed       uint64 `json:"pushed"`
	SRPTFirst    uint64 `json:"srptFirst"`
	LRPTDemoted  uint64 `json:"lrptDemoted"`
	NearBoundary uint64 `json:"nearBoundary"`
	Promotions   uint64 `json:"promotions"`
}

// DurationSummary is a compact latency-distribution summary carried in
// the stats document (nanosecond units, JSON-friendly).
type DurationSummary struct {
	Count     uint64 `json:"count"`
	MeanNanos int64  `json:"meanNanos"`
	P50Nanos  int64  `json:"p50Nanos"`
	P99Nanos  int64  `json:"p99Nanos"`
	MaxNanos  int64  `json:"maxNanos"`
}

// scratchPool recycles encode/decode scratch buffers across Writer and
// Reader lifetimes, so short-lived connections (redials, tests, chaos
// churn) stop paying a fresh buffer growth curve each. Buffers are
// handed back via Release.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getScratch() []byte {
	return (*scratchPool.Get().(*[]byte))[:0]
}

func putScratch(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	scratchPool.Put(&b)
}

// Writer encodes frames onto an io.Writer. Not safe for concurrent use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	hdr [4]byte // frame length header; a field so it never escapes per frame
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Release returns the writer's scratch buffer to the shared pool. Call
// it once, after the last Write/Encode; the writer remains usable and
// will lazily re-acquire scratch if written to again.
func (w *Writer) Release() {
	putScratch(w.buf)
	w.buf = nil
}

// scratch readies the reusable encode buffer.
func (w *Writer) scratch() []byte {
	if w.buf == nil {
		w.buf = getScratch()
	}
	return w.buf[:0]
}

// appendRequestBody encodes one operation's body (everything after the
// version and kind bytes) — the layout shared by single-op and batch
// frames.
func appendRequestBody(buf []byte, r *Request) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = appendBytes(buf, []byte(r.Key))
	buf = appendBytes(buf, r.Value)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Tags.RemainingNanos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Tags.SlackNanos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Tags.BottleneckNanos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Tags.DemandNanos))
	buf = binary.BigEndian.AppendUint32(buf, r.Tags.Fanout)
	buf = binary.BigEndian.AppendUint32(buf, r.Tags.SizeHintBytes)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.TTLNanos))
	buf = appendBytes(buf, r.OldValue)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.DeadlineNanos))
	buf = binary.BigEndian.AppendUint64(buf, r.Version)
	return append(buf, byte(r.Consistency))
}

// WriteRequest encodes and flushes one request frame.
func (w *Writer) WriteRequest(r *Request) error {
	if err := w.EncodeRequest(r); err != nil {
		return err
	}
	return w.Flush()
}

// EncodeRequest buffers one request frame without flushing.
func (w *Writer) EncodeRequest(r *Request) error {
	buf := w.scratch()
	buf = append(buf, Version, kindRequest)
	buf = appendRequestBody(buf, r)
	w.buf = buf
	return w.writeFrame()
}

// WriteBatch encodes every request as one batch frame and flushes once
// (a single request goes out as a single-op frame).
func (w *Writer) WriteBatch(reqs []Request) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(reqs) == 1 {
		return w.WriteRequest(&reqs[0])
	}
	if len(reqs) > MaxBatchOps {
		return ErrBatchTooLarge
	}
	buf := w.scratch()
	buf = append(buf, Version, kindBatch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(reqs)))
	for i := range reqs {
		buf = appendRequestBody(buf, &reqs[i])
	}
	w.buf = buf
	if err := w.writeFrame(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResponse encodes and flushes one response frame.
func (w *Writer) WriteResponse(r *Response) error {
	if err := w.EncodeResponse(r); err != nil {
		return err
	}
	return w.Flush()
}

// EncodeResponse buffers one response frame without flushing — the
// server's per-connection writer coalesces many responses into one
// flush (one syscall) with an explicit Flush after a drain.
func (w *Writer) EncodeResponse(r *Response) error {
	buf := w.scratch()
	buf = append(buf, Version, kindResponse, byte(r.Status))
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = appendBytes(buf, r.Value)
	buf = binary.BigEndian.AppendUint32(buf, r.Feedback.QueueLen)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Feedback.BacklogNanos))
	buf = binary.BigEndian.AppendUint32(buf, r.Feedback.SpeedMilli)
	buf = binary.BigEndian.AppendUint64(buf, r.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Timing.WaitNanos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Timing.ServiceNanos))
	buf = append(buf, r.Timing.SchedClass)
	w.buf = buf
	return w.writeFrame()
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// writeFrame emits the length header and the buffered payload into the
// underlying buffered writer without flushing.
func (w *Writer) writeFrame() error {
	if len(w.buf) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(w.hdr[:], uint32(len(w.buf)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	return nil
}

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Release returns the reader's scratch buffer to the shared pool. Call
// it once, after the last Read; the reader remains usable and will
// lazily re-acquire scratch if read from again.
func (r *Reader) Release() {
	putScratch(r.buf)
	r.buf = nil
}

// next reads one frame payload into the reusable buffer.
func (r *Reader) next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if r.buf == nil {
		r.buf = getScratch()
	}
	if cap(r.buf) < int(n) {
		putScratch(r.buf)
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return buf, nil
}

// decodeRequestBody decodes one operation body (leading with its op
// type byte) into req, reusing req's Value/OldValue backing arrays.
func decodeRequestBody(d *decoder, req *Request) error {
	req.Type = OpType(d.byte())
	if req.Type < OpGet || req.Type > OpIncr {
		return ErrBadMessage
	}
	req.ID = d.u64()
	req.Key = string(d.bytes())
	req.Value = append(req.Value[:0], d.bytes()...)
	req.Tags.RemainingNanos = int64(d.u64())
	req.Tags.SlackNanos = int64(d.u64())
	req.Tags.BottleneckNanos = int64(d.u64())
	req.Tags.DemandNanos = int64(d.u64())
	req.Tags.Fanout = d.u32()
	req.Tags.SizeHintBytes = d.u32()
	req.TTLNanos = int64(d.u64())
	req.OldValue = append(req.OldValue[:0], d.bytes()...)
	req.DeadlineNanos = int64(d.u64())
	req.Version = d.u64()
	req.Consistency = Consistency(d.byte())
	if d.err != nil || req.Consistency > ConsistencyAll {
		return ErrBadMessage
	}
	return nil
}

// minRequestBody is the encoded size of a request body whose key,
// value, and old value are all empty — the decoder's plausibility floor
// for batch operation counts.
const minRequestBody = 1 + 8 + 4 + 4 + 40 + 8 + 4 + 8 + 8 + 1

// ReadRequest decodes the next frame as a single-operation Request
// (batch frames are rejected; servers use ReadRequests).
func (r *Reader) ReadRequest(req *Request) error {
	buf, err := r.next()
	if err != nil {
		return err
	}
	d := decoder{buf: buf}
	version, kind := d.byte(), d.byte()
	if version != Version || kind != kindRequest {
		return ErrBadMessage
	}
	return decodeRequestBody(&d, req)
}

// ReadRequests decodes the next frame — a single-op request or a batch
// — into *reqs, reusing its backing array and each element's byte
// buffers across calls. The returned version is always Version; frames
// carrying any other version byte fail with ErrBadMessage.
func (r *Reader) ReadRequests(reqs *[]Request) (version byte, err error) {
	buf, err := r.next()
	if err != nil {
		return 0, err
	}
	d := decoder{buf: buf}
	if d.byte() != Version {
		return 0, ErrBadMessage
	}
	var count int
	switch d.byte() {
	case kindRequest:
		count = 1
	case kindBatch:
		n := d.u32()
		if d.err != nil || n == 0 || n > MaxBatchOps || int(n)*minRequestBody > d.remain() {
			return 0, ErrBadMessage
		}
		count = int(n)
	default:
		return 0, ErrBadMessage
	}
	batch := (*reqs)[:cap(*reqs)]
	for len(batch) < count {
		batch = append(batch, Request{})
	}
	batch = batch[:count]
	*reqs = batch
	for i := range batch {
		if err := decodeRequestBody(&d, &batch[i]); err != nil {
			*reqs = batch[:0]
			return 0, err
		}
	}
	return Version, nil
}

// ReadResponse decodes the next frame as a Response.
func (r *Reader) ReadResponse(resp *Response) error {
	buf, err := r.next()
	if err != nil {
		return err
	}
	d := decoder{buf: buf}
	version, kind, status := d.byte(), d.byte(), d.byte()
	if version != Version || kind != kindResponse {
		return ErrBadMessage
	}
	resp.Status = Status(status)
	if resp.Status < StatusOK || resp.Status > StatusDeadlineExceeded {
		return ErrBadMessage
	}
	resp.ID = d.u64()
	resp.Value = append(resp.Value[:0], d.bytes()...)
	resp.Feedback.QueueLen = d.u32()
	resp.Feedback.BacklogNanos = int64(d.u64())
	resp.Feedback.SpeedMilli = d.u32()
	resp.Version = d.u64()
	resp.Timing.WaitNanos = int64(d.u64())
	resp.Timing.ServiceNanos = int64(d.u64())
	resp.Timing.SchedClass = d.byte()
	if d.err != nil {
		return ErrBadMessage
	}
	return nil
}

func appendBytes(buf, b []byte) []byte {
	if len(b) > math.MaxUint32 {
		b = b[:math.MaxUint32]
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// decoder is a cursor over a frame payload that latches the first error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) remain() int { return len(d.buf) - d.off }

func (d *decoder) byte() byte {
	if d.err != nil || d.remain() < 1 {
		d.err = ErrBadMessage
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.remain() < 4 {
		d.err = ErrBadMessage
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.remain() < 8 {
		d.err = ErrBadMessage
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || d.remain() < int(n) {
		d.err = ErrBadMessage
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// replayRequests is how many generated requests the layer replay
// pushes through each layer's public functions.
const replayRequests = 20_000

// replayOp is one operation of the replayed stream, routed as the
// client would route it.
type replayOp struct {
	key    int32
	put    bool
	server sched.ServerID
}

// layerReplay measures each layer alone: the workload's first requests
// are pushed straight through the layer's exported functions, timed in
// blocks from outside. It returns nanoseconds (or the unit in the name)
// per operation.
func layerReplay(s spec, ks *keyspace, seed uint64, requests int, workdir string, rec *recorder) (map[string]float64, error) {
	out := make(map[string]float64)
	ring, err := s.ring()
	if err != nil {
		return nil, err
	}

	// The stream: requests as runs of ops, with ring routing timed.
	z := newZipf(s.keys, s.zipf)
	g := newGenerator(s, z, seed, 0, 1)
	var ops []replayOp
	var reqEnds []int // ops[reqEnds[i-1]:reqEnds[i]] is request i
	var req request
	for i := 0; i < requests; i++ {
		g.next(&req)
		for _, k := range req.keys {
			ops = append(ops, replayOp{key: k, put: req.put})
		}
		reqEnds = append(reqEnds, len(ops))
	}
	n := float64(len(ops))
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		out[name] = float64(t1.Sub(t0).Nanoseconds()) / n
		rec.addSpan(span{Name: "replay:" + name, Start: t0.Sub(rec.origin).Nanoseconds(), End: t1.Sub(rec.origin).Nanoseconds()})
	}

	timed("topology.lookup_ns", func() {
		for i := range ops {
			ops[i].server = ring.Lookup(ks.names[ops[i].key])
		}
	})

	// core: estimator, tagger, selector.
	est, err := core.NewEstimator(core.DefaultEstimatorConfig())
	if err != nil {
		return nil, err
	}
	timed("core.estimator.observe_ns", func() {
		for i, op := range ops {
			est.Observe(core.Feedback{Server: op.server, QueueLen: i & 7, Backlog: time.Duration(i&1023) * time.Microsecond, Speed: 1, At: time.Duration(i) * time.Microsecond})
		}
	})
	sel, err := replica.NewSelector(replica.Adaptive, est, seed|1)
	if err != nil {
		return nil, err
	}
	demand := func(op replayOp) time.Duration {
		if s.costPerByte > 0 {
			return time.Duration(ks.sizes[op.key]) * s.costPerByte
		}
		return 100 * time.Microsecond // the client's default demand
	}
	timed("replica.score_ns", func() {
		for i, op := range ops {
			sel.ScoreOf(op.server, demand(op), time.Duration(i)*time.Microsecond)
		}
	})
	schedOps := make([]sched.Op, len(ops))
	ptrs := make([]*sched.Op, len(ops))
	for i, op := range ops {
		schedOps[i] = sched.Op{Server: op.server, Key: ks.names[op.key], Demand: demand(op)}
		if s.costPerByte > 0 {
			schedOps[i].Tags.SizeBytes = int64(ks.sizes[op.key])
		}
		ptrs[i] = &schedOps[i]
	}
	timed("core.tag_ns_per_op", func() {
		lo := 0
		for i, hi := range reqEnds {
			core.Tag(ptrs[lo:hi], est, time.Duration(i)*time.Microsecond)
			lo = hi
		}
	})

	// sched: DAS push and pop at a held depth, FCFS as the floor.
	for _, depth := range []int{8, 1024} {
		push, pop, err := dasPushPop(ptrs, depth)
		if err != nil {
			return nil, err
		}
		suffix := fmt.Sprintf(".depth%d", depth)
		out["core.das.push_ns"+suffix], out["core.das.pop_ns"+suffix] = push, pop
	}
	fcfs := sched.NewFCFS()
	timed("sched.fcfs.push_pop_ns", func() {
		for i, p := range ptrs {
			now := time.Duration(i) * time.Microsecond
			fcfs.Push(p, now)
			fcfs.Pop(now)
		}
	})

	wireReplay(s, ops, reqEnds, ptrs, ks, out, rec)
	storeReplay(ops, ks, timed)

	h := metrics.NewHistogram(time.Microsecond, 10*time.Second, 16)
	timed("metrics.histogram_observe_ns", func() {
		for i := range ops {
			h.Observe(time.Duration(i&4095) * time.Microsecond)
		}
	})

	out["wal.append_ns"], out["wal.append_ack_us"] = 0, 0
	if s.walSync != "" {
		if err := walReplay(s, ops, ks, workdir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dasBlock is how many pushes, then pops, are timed together: small
// enough to hold the depth, large enough to amortise the clock reads.
const dasBlock = 8

func dasPushPop(ptrs []*sched.Op, depth int) (pushNs, popNs float64, err error) {
	q, err := core.New(core.LiveOptions())
	if err != nil {
		return 0, 0, err
	}
	// Queued ops must be distinct structs; copy so the stream's ops can
	// be in the queue more than once over the replay.
	pool := make([]sched.Op, depth+dasBlock)
	free := make([]*sched.Op, 0, len(pool))
	for i := range pool {
		free = append(free, &pool[i])
	}
	take := func(i int) *sched.Op {
		op := free[len(free)-1]
		free = free[:len(free)-1]
		*op = sched.Op{Server: ptrs[i].Server, Key: ptrs[i].Key, Demand: ptrs[i].Demand, Tags: ptrs[i].Tags}
		return op
	}
	now := time.Duration(0)
	next := 0
	for ; next < depth; next++ {
		q.Push(take(next%len(ptrs)), now)
	}
	var push, pop time.Duration
	blocks := 0
	for next+dasBlock <= len(ptrs) {
		var batch [dasBlock]*sched.Op
		for j := range batch {
			batch[j] = take(next)
			next++
		}
		now += 10 * time.Microsecond
		t0 := time.Now()
		for _, op := range batch {
			q.Push(op, now)
		}
		t1 := time.Now()
		for range batch {
			free = append(free, q.Pop(now))
		}
		t2 := time.Now()
		push += t1.Sub(t0)
		pop += t2.Sub(t1)
		blocks++
	}
	per := float64(blocks * dasBlock)
	return float64(push.Nanoseconds()) / per, float64(pop.Nanoseconds()) / per, nil
}

// wireChunk is how many frames are encoded before they are decoded
// again, so the buffer between the two stays small.
const wireChunk = 512

// wireReplay encodes and decodes the stream's frames over a
// bytes.Buffer: single-op frames, per-server batch frames as the client
// groups them, and one response per op carrying the key's value.
func wireReplay(s spec, ops []replayOp, reqEnds []int, ptrs []*sched.Op, ks *keyspace, out map[string]float64, rec *recorder) {
	reqs := make([]wire.Request, len(ops))
	resps := make([]wire.Response, len(ops))
	values := make(map[int32][]byte)
	for i, op := range ops {
		if _, ok := values[op.key]; !ok {
			values[op.key] = ks.fill(nil, int(op.key), 0)
		}
		t := ptrs[i].Tags
		reqs[i] = wire.Request{
			ID: uint64(i + 1), Type: wire.OpGet, Key: ks.names[op.key],
			Tags: wire.Tags{
				RemainingNanos: int64(t.RemainingTime), SlackNanos: int64(t.Slack()),
				BottleneckNanos: int64(t.DemandBottleneck), DemandNanos: int64(ptrs[i].Demand),
				Fanout: uint32(max(t.Fanout, 1)), SizeHintBytes: uint32(ptrs[i].Tags.SizeBytes),
			},
		}
		resps[i] = wire.Response{
			ID: uint64(i + 1), Status: wire.StatusOK,
			Feedback: wire.Feedback{QueueLen: 1, BacklogNanos: 1000, SpeedMilli: 1000},
			Timing:   wire.Timing{WaitNanos: 1000, ServiceNanos: 1000, SchedClass: 1},
		}
		if op.put {
			reqs[i].Type, reqs[i].Value = wire.OpPut, values[op.key]
		} else {
			resps[i].Value = values[op.key]
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var encReq, decReq, encResp, decResp, encBatch time.Duration
	var wireBytes int
	var buf bytes.Buffer
	w, rd := wire.NewWriter(&buf), wire.NewReader(&buf)
	var decoded []wire.Request
	var resp wire.Response
	for lo := 0; lo < len(ops); lo += wireChunk {
		hi := min(lo+wireChunk, len(ops))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			_ = w.EncodeRequest(&reqs[i])
		}
		_ = w.Flush()
		t1 := time.Now()
		wireBytes += buf.Len()
		for i := lo; i < hi; i++ {
			if _, err := rd.ReadRequests(&decoded); err != nil {
				panic("benchmark: replayed request frame does not decode: " + err.Error())
			}
		}
		t2 := time.Now()
		buf.Reset()
		for i := lo; i < hi; i++ {
			_ = w.EncodeResponse(&resps[i])
		}
		_ = w.Flush()
		t3 := time.Now()
		wireBytes += buf.Len()
		for i := lo; i < hi; i++ {
			if err := rd.ReadResponse(&resp); err != nil {
				panic("benchmark: replayed response frame does not decode: " + err.Error())
			}
		}
		t4 := time.Now()
		buf.Reset()
		encReq += t1.Sub(t0)
		decReq += t2.Sub(t1)
		encResp += t3.Sub(t2)
		decResp += t4.Sub(t3)
	}

	// Batch frames: each request's ops grouped by destination server.
	group := make([]wire.Request, 0, 16)
	lo := 0
	for _, hi := range reqEnds {
		for sv := 0; sv < s.servers; sv++ {
			group = group[:0]
			for i := lo; i < hi; i++ {
				if ops[i].server == sched.ServerID(sv) {
					group = append(group, reqs[i])
				}
			}
			if len(group) == 0 {
				continue
			}
			t0 := time.Now()
			_ = w.WriteBatch(group)
			encBatch += time.Since(t0)
			buf.Reset()
		}
		lo = hi
	}
	w.Release()
	rd.Release()
	runtime.ReadMemStats(&ms1)
	rec.addSpan(span{Name: "replay:wire", Start: start.Sub(rec.origin).Nanoseconds(), End: time.Since(rec.origin).Nanoseconds()})

	n := float64(len(ops))
	out["wire.encode_request_ns"] = float64(encReq.Nanoseconds()) / n
	out["wire.decode_request_ns"] = float64(decReq.Nanoseconds()) / n
	out["wire.encode_response_ns"] = float64(encResp.Nanoseconds()) / n
	out["wire.decode_response_ns"] = float64(decResp.Nanoseconds()) / n
	out["wire.batch_encode_ns_per_op"] = float64(encBatch.Nanoseconds()) / n
	// Five codec passes touched every op: four single-frame, one batched.
	out["wire.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / (5 * n)
	out["wire.bytes_per_op"] = float64(wireBytes) / n
}

// storeReplay loads the stream's keys into a fresh store (put_ns),
// reads them back in stream order (get_ns), and again from one
// goroutine per CPU at once (get_parallel_ns, per goroutine).
func storeReplay(ops []replayOp, ks *keyspace, timed func(string, func())) {
	st := kv.NewStore()
	val := make([]byte, 0, 16<<10)
	timed("kv.store.put_ns", func() {
		for _, op := range ops {
			val = ks.fill(val, int(op.key), 0)
			st.Put(ks.names[op.key], val)
		}
	})
	buf := make([]byte, 0, 16<<10)
	timed("kv.store.get_ns", func() {
		for _, op := range ops {
			buf, _, _ = st.GetVersionedAppend(ks.names[op.key], buf[:0])
		}
	})
	procs := runtime.GOMAXPROCS(0)
	timed("kv.store.get_parallel_ns", func() {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				b := make([]byte, 0, 16<<10)
				off := p * len(ops) / procs
				for i := range ops {
					b, _, _ = st.GetVersionedAppend(ks.names[ops[(i+off)%len(ops)].key], b[:0])
				}
			}(p)
		}
		wg.Wait()
	})
}

// walAppends is how many records the WAL replay appends one at a time.
const walAppends = 2_000

// walReplay appends the stream's first ops to a log opened with the
// workload's sync policy: the Append call alone, and Append until its
// acknowledgement returns.
func walReplay(s spec, ops []replayOp, ks *keyspace, workdir string, out map[string]float64) error {
	dir, err := os.MkdirTemp(workdir, "walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sync, err := wal.ParseSyncPolicy(s.walSync)
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "log"), Sync: sync})
	if err != nil {
		return err
	}
	var appendT, ackT time.Duration
	var val []byte
	count := min(walAppends, len(ops))
	for i := 0; i < count; i++ {
		op := ops[i]
		val = ks.fill(val, int(op.key), uint32(i))
		t0 := time.Now()
		ack, err := w.Append(wal.OpPut, ks.names[op.key], val, uint64(i+1), 0)
		t1 := time.Now()
		if err != nil {
			_ = w.Close()
			return err
		}
		if err := ack(); err != nil {
			_ = w.Close()
			return err
		}
		appendT += t1.Sub(t0)
		ackT += time.Since(t0)
	}
	out["wal.append_ns"] = float64(appendT.Nanoseconds()) / float64(count)
	out["wal.append_ack_us"] = us(ackT) / float64(count)
	return w.Close()
}

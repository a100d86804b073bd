package kv

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// This file ports the internal/schedtest property suite to the *real*
// server queue: raw wire connections drive a loopback server whose
// single worker is plugged with a long operation, so subsequent
// operations genuinely queue and the order (and scheduling class) of
// their responses reveals the live queue's service order. The sim-only
// suite let the live tail regress unnoticed (E21); these tests pin the
// live path.

// keyCost charges 1ms of service per key byte, making an operation's
// service demand controllable from the wire: a 30-byte key plugs the
// worker for ~30ms.
func keyCost(_ wire.OpType, keyLen, _ int) time.Duration {
	return time.Duration(keyLen) * time.Millisecond
}

// startLiveQueueServer launches one loopback server with a single
// worker over the given scheduling options.
func startLiveQueueServer(t *testing.T, opts core.Options, cost CostModel) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		ID:      0,
		Addr:    "127.0.0.1:0",
		Policy:  core.Factory(opts),
		Workers: 1,
		Cost:    cost,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// rawConn speaks the wire protocol directly, bypassing the client so
// tests control every tag bit. Not safe for concurrent writers.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	w    *wire.Writer
	r    *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{t: t, conn: conn, w: wire.NewWriter(conn), r: wire.NewReader(conn)}
}

func (c *rawConn) send(req *wire.Request) {
	c.t.Helper()
	if err := c.w.WriteRequest(req); err != nil {
		c.t.Fatalf("WriteRequest: %v", err)
	}
}

func (c *rawConn) recv() wire.Response {
	c.t.Helper()
	var resp wire.Response
	if err := c.r.ReadResponse(&resp); err != nil {
		c.t.Fatalf("ReadResponse: %v", err)
	}
	return resp
}

// taggedGet builds a get whose queue behavior is fully determined by
// the test: remaining (SRPT key), slack (LRPT-last key), and service
// demand via key length under keyCost.
func taggedGet(id uint64, keyLen int, remaining, slack time.Duration) wire.Request {
	key := fmt.Sprintf("%0*d", keyLen, id)
	return wire.Request{
		ID: id, Type: wire.OpGet, Key: key,
		Tags: wire.Tags{
			RemainingNanos: int64(remaining),
			SlackNanos:     int64(slack),
			DemandNanos:    int64(time.Duration(keyLen) * time.Millisecond),
			Fanout:         1,
		},
	}
}

// plugWorker parks the server's single worker on a long operation so
// everything sent afterward queues. The sleep gives the worker time to
// pop the plug before the test's real traffic arrives.
func plugWorker(c *rawConn, id uint64, d time.Duration) {
	req := taggedGet(id, int(d/time.Millisecond), time.Microsecond, 0)
	c.send(&req)
	time.Sleep(30 * time.Millisecond)
}

// TestLiveQueueWorkConservation is work conservation on the real
// queue: every admitted operation is answered exactly once and the
// queue drains to empty.
func TestLiveQueueWorkConservation(t *testing.T) {
	srv := startLiveQueueServer(t, core.LiveOptions(), nil)
	c := dialRaw(t, srv.Addr())
	const n = 200
	for i := 1; i <= n; i++ {
		// A spread of tag shapes: untagged, SRPT-ordered, deep slack.
		req := taggedGet(uint64(i), 4, time.Duration(i%7)*time.Millisecond,
			time.Duration(i%3)*10*time.Millisecond)
		c.send(&req)
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		resp := c.recv()
		if seen[resp.ID] {
			t.Fatalf("response %d delivered twice", resp.ID)
		}
		seen[resp.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("answered %d of %d ops", len(seen), n)
	}
	if got := srv.QueueLen(); got != 0 {
		t.Fatalf("drained queue Len = %d", got)
	}
}

// TestLiveQueueSRPTOrder asserts the live queue actually serves its
// priority: with the worker plugged, queued operations come back in
// ascending remaining-time order regardless of arrival order.
func TestLiveQueueSRPTOrder(t *testing.T) {
	srv := startLiveQueueServer(t, core.LiveOptions(), keyCost)
	c := dialRaw(t, srv.Addr())
	plugWorker(c, 1, 50*time.Millisecond)
	// Arrival order 30ms, 10ms, 20ms; SRPT must serve 10, 20, 30.
	for _, r := range []wire.Request{
		taggedGet(2, 1, 30*time.Millisecond, 0),
		taggedGet(3, 1, 10*time.Millisecond, 0),
		taggedGet(4, 1, 20*time.Millisecond, 0),
	} {
		c.send(&r)
	}
	want := []uint64{1, 3, 4, 2}
	for _, w := range want {
		if resp := c.recv(); resp.ID != w {
			t.Fatalf("response order got id %d, want %d", resp.ID, w)
		}
	}
}

// TestLiveQueueShorterFirst is the monotonicity property live: an
// operation smaller in every size dimension is served first even when
// it arrives later.
func TestLiveQueueShorterFirst(t *testing.T) {
	srv := startLiveQueueServer(t, core.LiveOptions(), keyCost)
	c := dialRaw(t, srv.Addr())
	plugWorker(c, 1, 50*time.Millisecond)
	big := taggedGet(2, 8, 25*time.Millisecond, 0)
	small := taggedGet(3, 1, 2*time.Millisecond, 0)
	c.send(&big)
	c.send(&small)
	c.recv() // plug
	if resp := c.recv(); resp.ID != 3 {
		t.Fatalf("first queued response is id %d, want the smaller op", resp.ID)
	}
}

// TestLiveQueueStarvationBound asserts the AgingBound promise on the
// real data plane: a large-RPT operation facing a continuous stream of
// shorter arrivals is still served — promoted, not starved — and the
// server reports the promotion in both the response class and its
// decision counters. This is the exact mechanism that failed (absent)
// in E21, where live DAS p99 inverted 8.5x against FCFS.
func TestLiveQueueStarvationBound(t *testing.T) {
	srv := startLiveQueueServer(t, core.Options{Beta: 0.1, AgingBound: 4}, keyCost)
	c := dialRaw(t, srv.Addr())
	// A long plug keeps the worker busy well past the victim's and the
	// first stream ops' arrival, so the victim never meets an empty
	// queue (where it would be served unpromoted).
	plugWorker(c, 1, 60*time.Millisecond)

	const victimID = 2
	// Victim: 10ms of service and remaining time → promotion deadline
	// 40ms after enqueue under AgingBound 4.
	victim := taggedGet(victimID, 10, 10*time.Millisecond, 0)
	c.send(&victim)

	// Stream shorter ops (2ms remaining) faster than they are served,
	// so pure SRPT would defer the victim forever.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := taggedGet(uint64(100+i), 2, 2*time.Millisecond, 0)
			if err := c.w.WriteRequest(&req); err != nil {
				return // conn torn down at test end
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer wg.Wait()
	defer close(stop)

	if err := c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	for {
		var resp wire.Response
		if err := c.r.ReadResponse(&resp); err != nil {
			t.Fatalf("victim starved: no response within 10s despite the aging bound (%v)", err)
		}
		if resp.ID != victimID {
			continue
		}
		if got := sched.Class(resp.Timing.SchedClass); got != sched.ClassPromoted {
			t.Fatalf("victim served with class %v, want %v", got, sched.ClassPromoted)
		}
		if d := srv.StatsSnapshot().Decisions; d == nil || d.Promotions < 1 {
			t.Fatalf("server decision counters missing the promotion: %+v", d)
		}
		return
	}
}

// TestLiveSpeedIgnoresClientTag asserts the server owns its speed
// feedback: it is the nominal cost of the bytes served over the measured
// service time, so a client whose demand tags are 1000x too large cannot
// talk the server into reporting 1000x speed — the runaway that fed a
// wrong tag back into the client's own size model.
func TestLiveSpeedIgnoresClientTag(t *testing.T) {
	for _, factor := range []float64{1, 0.5} {
		t.Run(fmt.Sprint(factor), func(t *testing.T) {
			srv, err := NewServer(ServerConfig{
				ID: 0, Addr: "127.0.0.1:0", Policy: core.Factory(core.LiveOptions()),
				Workers: 1, Cost: keyCost, SpeedFactor: factor,
			})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			c := dialRaw(t, srv.Addr())
			// 5 ms of nominal service leaves room for timer overshoot
			// inside the 0.7 floor on a loaded host.
			for i := 1; i <= 20; i++ {
				req := taggedGet(uint64(i), 5, 5*time.Millisecond, 0)
				req.Tags.DemandNanos *= 1000
				c.send(&req)
				c.recv()
				if got := srv.StatsSnapshot().Speed; got < 0.7*factor || got > factor {
					t.Fatalf("after %d gets tagged 1000x their cost, speed = %v, want within [0.7, 1] x %v", i, got, factor)
				}
			}
		})
	}
}

// TestLiveBatchOneSchedClass asserts a coherently tagged v3 batch
// frame is admitted under one scheduling decision: every operation of
// the frame reports the same class, while each still gets its own
// response frame.
func TestLiveBatchOneSchedClass(t *testing.T) {
	srv := startLiveQueueServer(t, core.LiveOptions(), keyCost)
	c := dialRaw(t, srv.Addr())
	plugWorker(c, 1, 60*time.Millisecond)

	// Remaining 40ms keeps the promotion deadline (AgingBound 2 ×
	// 40ms = 80ms) comfortably past the last member's wait (~45ms:
	// plug remainder plus five 2ms services), so no member is
	// promoted at pop time and the admission decision alone
	// determines every class.
	const width = 6
	reqs := make([]wire.Request, width)
	for i := range reqs {
		reqs[i] = taggedGet(uint64(10+i), 2, 40*time.Millisecond, 0)
	}
	if err := c.w.WriteBatch(reqs); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	c.recv() // plug
	classes := make(map[uint64]uint8, width)
	for i := 0; i < width; i++ {
		resp := c.recv()
		if _, dup := classes[resp.ID]; dup {
			t.Fatalf("op %d answered twice", resp.ID)
		}
		classes[resp.ID] = resp.Timing.SchedClass
	}
	if len(classes) != width {
		t.Fatalf("answered %d ops of a %d-op batch", len(classes), width)
	}
	first := classes[10]
	for id, cl := range classes {
		if cl != first {
			t.Fatalf("batch split across classes: op %d got %d, op 10 got %d", id, cl, first)
		}
	}
	if st := srv.StatsSnapshot(); st.Batches < 1 {
		t.Fatalf("server admitted no batch frame: %+v", st)
	}
}

// TestLiveBatchIncoherentFallsBack asserts a batch frame whose tags
// disagree (a pre-batch-aware tagger, or a forged frame) still serves
// correctly through the per-op admission path.
func TestLiveBatchIncoherentFallsBack(t *testing.T) {
	srv := startLiveQueueServer(t, core.LiveOptions(), nil)
	c := dialRaw(t, srv.Addr())
	reqs := make([]wire.Request, 4)
	for i := range reqs {
		reqs[i] = taggedGet(uint64(20+i), 2, time.Duration(i+1)*5*time.Millisecond,
			time.Duration(i)*time.Millisecond)
	}
	if err := c.w.WriteBatch(reqs); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < len(reqs); i++ {
		resp := c.recv()
		if resp.Status != wire.StatusNotFound {
			t.Fatalf("op %d status = %d, want not-found on an empty store", resp.ID, resp.Status)
		}
		seen[resp.ID] = true
	}
	if len(seen) != len(reqs) {
		t.Fatalf("answered %d of %d incoherent-batch ops", len(seen), len(reqs))
	}
}

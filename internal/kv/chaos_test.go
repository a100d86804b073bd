package kv

// Chaos tests: scripted fault schedules against live loopback clusters,
// asserting the resilience invariants the client and server promise —
// partial multiget results within the caller's deadline, no lost acked
// writes across a crash/restart, dead servers quarantined by the
// estimator and routed around, and deadline ceilings honored even when
// a server stalls mid-request.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/fault"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// restartServer rebinds a server on addr, retrying while the OS
// releases the port.
func restartServer(t *testing.T, cfg ServerConfig, addr string) *Server {
	t.Helper()
	cfg.Addr = addr
	var srv *Server
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		srv, err = NewServer(cfg)
		if err == nil {
			return srv
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("restart on %s: %v", addr, err)
	return nil
}

// TestMultigetPartialOnServerCrash is the headline chaos scenario: one
// server of two is killed mid-multiget. The client must return every
// key the surviving server holds plus per-key errors for the dead
// server's keys — within the request deadline — the estimator must
// quarantine the corpse, and a restart from its write-ahead log must
// restore both the data and the routing.
func TestMultigetPartialOnServerCrash(t *testing.T) {
	cost := func(wire.OpType, int, int) time.Duration { return 10 * time.Millisecond }
	dir := t.TempDir()
	servers := make([]*Server, 2)
	addrs := make(map[sched.ServerID]string, 2)
	cfgs := make([]ServerConfig, 2)
	for i := 0; i < 2; i++ {
		cfgs[i] = ServerConfig{
			ID:      sched.ServerID(i),
			Addr:    "127.0.0.1:0",
			Cost:    cost,
			WALDir:  fmt.Sprintf("%s/server%d", dir, i),
			WALSync: wal.SyncPolicy{Mode: wal.SyncNone},
		}
		srv, err := NewServer(cfgs[i])
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		servers[i] = srv
		addrs[srv.ID()] = srv.Addr()
	}
	t.Cleanup(func() { _ = servers[1].Close() })
	client, err := NewClient(ClientConfig{
		Servers:          addrs,
		Adaptive:         true,
		ReadRetries:      1,
		RetryBackoff:     5 * time.Millisecond,
		ReconnectBackoff: 50 * time.Millisecond,
		Seed:             1,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()

	// Seed 30 keys; every put below is acked before the crash.
	keys := make([]string, 30)
	values := make(map[string]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-%03d", i)
		values[keys[i]] = fmt.Sprintf("v%d", i)
		if err := client.Put(ctx, keys[i], []byte(values[keys[i]])); err != nil {
			t.Fatalf("Put %s: %v", keys[i], err)
		}
	}
	victim := servers[0].ID()
	var victimKeys, liveKeys []string
	for _, k := range keys {
		if client.ring.Lookup(k) == victim {
			victimKeys = append(victimKeys, k)
		} else {
			liveKeys = append(liveKeys, k)
		}
	}
	if len(victimKeys) == 0 || len(liveKeys) == 0 {
		t.Fatalf("degenerate key split: %d victim, %d live", len(victimKeys), len(liveKeys))
	}

	// Fire the multiget, then kill the victim while its ops are queued
	// (10ms per op serializes them far past the kill point).
	mctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	type mgetResult struct {
		res map[string][]byte
		err error
	}
	done := make(chan mgetResult, 1)
	start := time.Now()
	go func() {
		res, merr := client.MGet(mctx, keys)
		done <- mgetResult{res, merr}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := servers[0].Close(); err != nil {
		t.Fatalf("kill server 0: %v", err)
	}
	r := <-done
	elapsed := time.Since(start)
	if elapsed >= 2*time.Second {
		t.Fatalf("degraded multiget took %v, must finish within its 2s deadline", elapsed)
	}

	// Partial results: a PartialError naming only victim keys, with
	// every surviving key present and intact.
	var perr *PartialError
	if !errors.As(r.err, &perr) {
		t.Fatalf("MGet error = %v, want *PartialError", r.err)
	}
	if !errors.Is(r.err, ErrUnavailable) {
		t.Fatalf("PartialError should unwrap to ErrUnavailable, got %v", r.err)
	}
	for _, k := range liveKeys {
		if got := string(r.res[k]); got != values[k] {
			t.Fatalf("surviving key %s = %q, want %q", k, got, values[k])
		}
	}
	for _, k := range victimKeys {
		_, ok := r.res[k]
		_, failed := perr.Errs[k]
		if ok == failed {
			t.Fatalf("victim key %s: in results=%v, in errors=%v (want exactly one)", k, ok, failed)
		}
		if ok && string(r.res[k]) != values[k] {
			t.Fatalf("victim key %s completed with wrong value %q", k, r.res[k])
		}
	}
	for k := range perr.Errs {
		if client.ring.Lookup(k) != victim {
			t.Fatalf("key %s failed but lives on the healthy server", k)
		}
	}
	if len(perr.Errs) == 0 {
		t.Fatal("no victim key failed; the kill missed the multiget")
	}

	// The estimator must have quarantined the dead server.
	if !client.est.Down(victim, client.now()) {
		t.Fatal("estimator did not mark the crashed server down")
	}

	// Restart from the log: data and routing both recover.
	srv2 := restartServer(t, cfgs[0], addrs[victim])
	t.Cleanup(func() { _ = srv2.Close() })
	recoverCtx, rcancel := context.WithTimeout(ctx, 5*time.Second)
	defer rcancel()
	probe := victimKeys[0]
	for {
		v, gerr := client.Get(recoverCtx, probe)
		if gerr == nil {
			if string(v) != values[probe] {
				t.Fatalf("after restart %s = %q, want %q", probe, v, values[probe])
			}
			break
		}
		if recoverCtx.Err() != nil {
			t.Fatalf("client never recovered after restart: %v", gerr)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if client.est.Down(victim, client.now()) {
		t.Fatal("fresh feedback should revive the restarted server")
	}
}

// TestAckedWritesSurviveRestart stops a server under a concurrent
// write storm and checks the durability invariant: every write the
// client saw acknowledged is present after a restart. The log runs
// unsynced, so the graceful close's compaction is what carries the
// writes across.
func TestAckedWritesSurviveRestart(t *testing.T) {
	cfg := ServerConfig{
		ID: 0, Addr: "127.0.0.1:0",
		WALDir: t.TempDir(), WALSync: wal.SyncPolicy{Mode: wal.SyncNone},
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr := srv.Addr()
	client, err := NewClient(ClientConfig{
		Servers:          map[sched.ServerID]string{0: addr},
		ReconnectBackoff: time.Hour, // no redials: keep the storm on one conn
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	var mu sync.Mutex
	acked := make(map[string]string)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				k := fmt.Sprintf("w%d-%04d", g, i)
				v := fmt.Sprintf("val-%d-%d", g, i)
				if err := client.Put(context.Background(), k, []byte(v)); err != nil {
					return // server gone; unacked writes carry no promise
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(40 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no writes were acked before the crash; storm misfired")
	}

	srv2 := restartServer(t, cfg, addr)
	t.Cleanup(func() { _ = srv2.Close() })
	for k, want := range acked {
		v, ok := srv2.Store().Get(k)
		if !ok || string(v) != want {
			t.Fatalf("acked write %s lost across restart (ok=%v v=%q)", k, ok, v)
		}
	}
}

// TestReadsRouteAroundDeadReplica kills one of two replica holders and
// checks that adaptive fastest-read routing sends every subsequent read
// to the survivor — reads keep succeeding with zero per-call fuss.
func TestReadsRouteAroundDeadReplica(t *testing.T) {
	servers := make([]*Server, 2)
	addrs := make(map[sched.ServerID]string, 2)
	for i := 0; i < 2; i++ {
		srv, err := NewServer(ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
		addrs[srv.ID()] = srv.Addr()
		t.Cleanup(func() { _ = srv.Close() })
	}
	client, err := NewClient(ClientConfig{
		Servers:          addrs,
		Adaptive:         true,
		Replicas:         2,
		ReadFrom:         FastestRead,
		ReadRetries:      2,
		RetryBackoff:     2 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
		Seed:             7,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := client.Put(ctx, fmt.Sprintf("rep%d", i), []byte("both")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	_ = servers[0].Close()

	// Every read must succeed: the first attempt against the corpse is
	// retried onto the survivor, and once the estimator marks it down
	// reads go straight to the survivor.
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("rep%d", i)
			v, gerr := client.Get(ctx, k)
			if gerr != nil {
				t.Fatalf("round %d Get %s: %v", round, k, gerr)
			}
			if string(v) != "both" {
				t.Fatalf("Get %s = %q", k, v)
			}
		}
	}
	if !client.est.Down(servers[0].ID(), client.now()) {
		t.Fatal("dead replica should be quarantined after failed reads")
	}
}

// TestDeadlineCeilingUnderOverload floods a slow single-worker server
// and checks every call returns within its deadline (plus scheduling
// slop), with late operations shed as deadline-exceeded rather than
// served pointlessly.
func TestDeadlineCeilingUnderOverload(t *testing.T) {
	cost := func(wire.OpType, int, int) time.Duration { return 30 * time.Millisecond }
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0", Cost: cost})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := NewClient(ClientConfig{
		Servers:        map[sched.ServerID]string{0: srv.Addr()},
		RequestTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "hot", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	const calls = 8
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	outcomes := make(chan outcome, calls)
	for i := 0; i < calls; i++ {
		go func() {
			begin := time.Now()
			_, gerr := client.Get(ctx, "hot")
			outcomes <- outcome{gerr, time.Since(begin)}
		}()
	}
	deadlineFailures := 0
	for i := 0; i < calls; i++ {
		o := <-outcomes
		// Ceiling: the configured 60ms deadline plus generous CI slop.
		if o.elapsed > 600*time.Millisecond {
			t.Fatalf("call took %v, far past its 60ms deadline", o.elapsed)
		}
		if o.err != nil {
			if !errors.Is(o.err, context.DeadlineExceeded) {
				t.Fatalf("overloaded call failed with %v, want a deadline error", o.err)
			}
			deadlineFailures++
		}
	}
	// 8 calls x 30ms on one worker cannot all fit in 60ms.
	if deadlineFailures == 0 {
		t.Fatal("every call beat an impossible deadline; shedding never triggered")
	}
}

// TestDeadlineHonoredUnderStall stalls the server's network I/O
// entirely and checks the client still honors its deadline, then heals
// the fault and checks traffic resumes on the same connection.
func TestDeadlineHonoredUnderStall(t *testing.T) {
	inj := fault.NewInjector(11)
	srv, err := NewServer(ServerConfig{
		ID: 0, Addr: "127.0.0.1:0",
		WrapConn: func(c net.Conn) net.Conn { return inj.Conn(c) },
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := NewClient(ClientConfig{Servers: map[sched.ServerID]string{0: srv.Addr()}})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	inj.Set(fault.Stall, 1, 0)
	start := time.Now()
	gctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	_, gerr := client.Get(gctx, "k")
	cancel()
	if !errors.Is(gerr, context.DeadlineExceeded) {
		t.Fatalf("Get under stall = %v, want DeadlineExceeded", gerr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stalled Get returned after %v, deadline ceiling is 150ms", elapsed)
	}

	inj.Heal()
	hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
	defer hcancel()
	for {
		v, gerr := client.Get(hctx, "k")
		if gerr == nil {
			if string(v) != "v" {
				t.Fatalf("after heal Get = %q", v)
			}
			return
		}
		if hctx.Err() != nil {
			t.Fatalf("traffic never resumed after heal: %v", gerr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerShedsExpiredOps drives the wire protocol directly: an
// already-expired operation queued behind a slow one must come back
// StatusDeadlineExceeded without being served.
func TestServerShedsExpiredOps(t *testing.T) {
	cost := func(wire.OpType, int, int) time.Duration { return 50 * time.Millisecond }
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0", Cost: cost})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	served := srv.Store()
	served.Put("a", []byte("slow"))
	served.Put("b", []byte("doomed"))

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	w := wire.NewWriter(conn)
	r := wire.NewReader(conn)
	// Op 1 occupies the single worker for 50ms; op 2's 1ns budget is
	// long dead by the time the worker reaches it.
	if err := w.WriteRequest(&wire.Request{ID: 1, Type: wire.OpGet, Key: "a"}); err != nil {
		t.Fatalf("write op 1: %v", err)
	}
	if err := w.WriteRequest(&wire.Request{ID: 2, Type: wire.OpGet, Key: "b", DeadlineNanos: 1}); err != nil {
		t.Fatalf("write op 2: %v", err)
	}
	var resp wire.Response
	if err := r.ReadResponse(&resp); err != nil {
		t.Fatalf("read response 1: %v", err)
	}
	if resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("op 1 = id %d status %d, want id 1 StatusOK", resp.ID, resp.Status)
	}
	if err := r.ReadResponse(&resp); err != nil {
		t.Fatalf("read response 2: %v", err)
	}
	if resp.ID != 2 || resp.Status != wire.StatusDeadlineExceeded {
		t.Fatalf("op 2 = id %d status %d, want id 2 StatusDeadlineExceeded", resp.ID, resp.Status)
	}
	if len(resp.Value) != 0 {
		t.Fatal("shed op must not carry a value")
	}
}

// TestServerSurvivesCorruptedTraffic runs client traffic through a
// bit-flipping injector and checks the server neither crashes nor
// wedges: once the fault heals, a fresh client gets clean service and
// the data written before the fault is intact.
func TestServerSurvivesCorruptedTraffic(t *testing.T) {
	inj := fault.NewInjector(99)
	srv, err := NewServer(ServerConfig{
		ID: 0, Addr: "127.0.0.1:0",
		WrapConn: func(c net.Conn) net.Conn { return inj.Conn(c) },
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := NewClient(ClientConfig{
		Servers:          map[sched.ServerID]string{0: srv.Addr()},
		RequestTimeout:   200 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "pristine", []byte("untouched")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	inj.Set(fault.Corrupt, 1, 0)
	// Hammer through the fault; outcomes vary (decode errors, timeouts,
	// torn connections) — the assertion is only that nothing wedges.
	for i := 0; i < 10; i++ {
		_, _ = client.Get(ctx, "pristine")
	}
	inj.Heal()

	fresh, err := NewClient(ClientConfig{Servers: map[sched.ServerID]string{0: srv.Addr()}})
	if err != nil {
		t.Fatalf("fresh client after heal: %v", err)
	}
	t.Cleanup(func() { _ = fresh.Close() })
	v, err := fresh.Get(ctx, "pristine")
	if err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if string(v) != "untouched" {
		t.Fatalf("data corrupted at rest: %q", v)
	}
}

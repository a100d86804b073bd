package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// TestDefaultWriteFailsOnAnyDownHolder pins the default level's write
// contract: it needs every holder, so one dead holder fails the write,
// while the live holders still apply it.
func TestDefaultWriteFailsOnAnyDownHolder(t *testing.T) {
	servers, client := startReplicatedCluster(t, 3, 3, nil, ClientConfig{
		RequestTimeout: 2 * time.Second,
	})
	servers[2].Crash()
	err := client.Put(context.Background(), "k", []byte("v"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("default Put with a dead holder: err = %v, want ErrUnavailable", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, srv := range servers[:2] {
		for {
			v, _, ok := srv.Store().GetVersioned("k")
			if ok && string(v) == "v" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("live holder %d: value %q (found %v), want %q", srv.ID(), v, ok, "v")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// delayedConn holds every chunk a server reads for a fixed delay before
// handing it on: the server sees each request that much late.
type delayedConn struct {
	net.Conn
	delay time.Duration
}

func (c *delayedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		time.Sleep(c.delay)
	}
	return n, err
}

// TestQuorumWakesAtWAndDrainsStraggler checks the threshold call: a
// QUORUM write on three holders, one of them slow, returns at two acks
// with the third write still in flight; that straggler then lands on
// the slow holder and completes on the read loop, and Close leaves no
// straggler behind.
func TestQuorumWakesAtWAndDrainsStraggler(t *testing.T) {
	const delay = 200 * time.Millisecond
	servers := make([]*Server, 3)
	addrs := make(map[sched.ServerID]string, len(servers))
	for i := range servers {
		cfg := ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Replication: 3}
		if i == 2 {
			cfg.WrapConn = func(c net.Conn) net.Conn { return &delayedConn{Conn: c, delay: delay} }
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers[i], addrs[srv.ID()] = srv, srv.Addr()
	}
	client, err := NewClient(ClientConfig{Servers: addrs, Replicas: 3, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	slow := func() int {
		cc, err := client.conn(2)
		if err != nil {
			t.Fatalf("conn to the slow holder: %v", err)
		}
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.pending)
	}
	ctx := context.Background()

	start := time.Now()
	if err := client.PutLevel(ctx, "k", []byte("v1"), wire.ConsistencyQuorum); err != nil {
		t.Fatalf("QUORUM put: %v", err)
	}
	if took := time.Since(start); took >= delay/2 {
		t.Fatalf("QUORUM put returned after %v; want well before the %v straggler", took, delay)
	}
	if n := slow(); n != 1 {
		t.Fatalf("%d writes awaiting the slow holder after the put returned, want the straggler", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slow() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the straggler never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, wantVer, _ := servers[0].Store().GetVersioned("k")
	if v, ver, ok := servers[2].Store().GetVersioned("k"); !ok || string(v) != string(want) || ver != wantVer {
		t.Fatalf("slow holder after the drain: %q@%d (found %v), want %q@%d", v, ver, ok, want, wantVer)
	}

	// A second straggler is still in flight when Close runs: Close waits
	// for it, and the write already on the wire still lands.
	base := runtime.NumGoroutine()
	if err := client.PutLevel(ctx, "k", []byte("v2"), wire.ConsistencyQuorum); err != nil {
		t.Fatalf("second QUORUM put: %v", err)
	}
	if n := slow(); n != 1 {
		t.Fatalf("%d writes awaiting the slow holder before Close, want the straggler", n)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client.repairWG.Wait() // returns at once: Close already waited
	deadline = time.Now().Add(5 * time.Second)
	for {
		v, _, _ := servers[2].Store().GetVersioned("k")
		if string(v) == "v2" && runtime.NumGoroutine() <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: slow holder has %q, %d goroutines (baseline %d)", v, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stallConn never hands the server a byte until released: a holder
// that is connected but never answers.
type stallConn struct {
	net.Conn
	release <-chan struct{}
}

func (c *stallConn) Read(p []byte) (int, error) {
	<-c.release
	return c.Conn.Read(p)
}

// TestDrainDeadlineFailsSilentHolder checks the drain timer: a
// straggler whose holder stays connected but never answers is failed
// once the request timeout passes, so the call does not wait for the
// connection to die.
func TestDrainDeadlineFailsSilentHolder(t *testing.T) {
	const timeout = 100 * time.Millisecond
	release := make(chan struct{})
	addrs := make(map[sched.ServerID]string, 3)
	for i := range 3 {
		cfg := ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Replication: 3}
		if i == 2 {
			cfg.WrapConn = func(c net.Conn) net.Conn { return &stallConn{Conn: c, release: release} }
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	t.Cleanup(func() { close(release) })
	client, err := NewClient(ClientConfig{Servers: addrs, Replicas: 3, RequestTimeout: timeout})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	cc, err := client.conn(2)
	if err != nil {
		t.Fatalf("conn to the silent holder: %v", err)
	}
	pending := func() int {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.pending)
	}

	start := time.Now()
	if err := client.PutLevel(context.Background(), "k", []byte("v"), wire.ConsistencyQuorum); err != nil {
		t.Fatalf("QUORUM put: %v", err)
	}
	if n := pending(); n != 1 {
		t.Fatalf("%d writes awaiting the silent holder after the put returned, want the straggler", n)
	}
	for pending() != 0 {
		if time.Since(start) > 20*timeout {
			t.Fatalf("straggler still awaited %v after the put, drain deadline %v", time.Since(start), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("straggler failed after %v, before the %v drain deadline", took, timeout)
	}
	if cc.isDead() {
		t.Fatal("the silent holder's connection died; the drain timer should have failed the straggler")
	}
}

// TestQuorumCallStress races replicated threshold calls — writes at
// every level and QUORUM reads — against random context cancellation
// and a connection killed every 15 ms. No value may cross keys, the
// selector's in-flight counts must drain to zero, and after Close the
// goroutine count must settle back to where it was before the client.
func TestQuorumCallStress(t *testing.T) {
	const nKeys, rounds = 24, 100
	cost := func(wire.OpType, int, int) time.Duration { return 50 * time.Microsecond }
	killer := &connKiller{}
	addrs := make(map[sched.ServerID]string, 3)
	for i := range 3 {
		cfg := ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Cost: cost, Replication: 3}
		if i == 0 {
			cfg.WrapConn = killer.wrap
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	base := runtime.NumGoroutine()
	client, err := NewClient(ClientConfig{
		Servers:          addrs,
		Adaptive:         true,
		Replicas:         3,
		ReadFrom:         FastestRead,
		ReadRetries:      2,
		RetryBackoff:     200 * time.Microsecond,
		ReconnectBackoff: time.Millisecond,
		RequestTimeout:   2 * time.Second,
		Seed:             11,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	keys := make([]string, nKeys)
	ctx := context.Background()
	for i := range keys {
		keys[i] = fmt.Sprintf("quorum-%02d", i)
		if err := client.Put(ctx, keys[i], []byte(keys[i]+"#0")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	stop := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				killer.killLatest()
			}
		}
	}()

	// Each worker is one kind of operation; a read must return a value
	// written for its own key.
	levels := []wire.Consistency{wire.ConsistencyOne, wire.ConsistencyQuorum, wire.ConsistencyAll, wire.ConsistencyDefault}
	var wg sync.WaitGroup
	errs := make(chan error, len(levels)+2)
	var failures [2]int // writes, reads that failed for a permitted cause
	var fmu sync.Mutex
	expected := func(err error) bool {
		return errors.Is(err, ErrUnavailable) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}
	worker := func(w int, op func(rctx context.Context, key string, n int) error) {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(uint64(w), 46))
		for n := 1; n <= rounds; n++ {
			rctx, cancel := context.WithCancel(ctx)
			if rng.IntN(3) == 0 {
				time.AfterFunc(time.Duration(rng.IntN(400))*time.Microsecond, cancel)
			}
			err := op(rctx, keys[rng.IntN(nKeys)], n)
			cancel()
			if err != nil && !expected(err) {
				errs <- err
				return
			}
			if err != nil {
				fmu.Lock()
				failures[min(w/len(levels), 1)]++
				fmu.Unlock()
			}
		}
	}
	for w, level := range levels {
		wg.Add(1)
		go worker(w, func(rctx context.Context, key string, n int) error {
			return client.PutLevel(rctx, key, []byte(fmt.Sprintf("%s#%d.%d", key, w, n)), level)
		})
	}
	for r, level := range []wire.Consistency{wire.ConsistencyQuorum, wire.ConsistencyOne} {
		wg.Add(1)
		go worker(len(levels)+r, func(rctx context.Context, key string, _ int) error {
			v, err := client.GetLevel(rctx, key, level)
			if err == nil && !strings.HasPrefix(string(v), key+"#") {
				return fmt.Errorf("%s read of %q returned %q: a value of another key", level, key, v)
			}
			return err
		})
	}
	wg.Wait()
	close(stop)
	<-killed
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("failed for a permitted cause: %d writes, %d reads", failures[0], failures[1])
	if failures[0]+failures[1] == 0 {
		t.Error("no operation was disturbed: the kills and cancellations never raced a call")
	}
	for id := range addrs {
		if n := client.sel.Outstanding(id); n != 0 {
			t.Errorf("server %d: %d reads still counted in flight after every call returned", id, n)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the client:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fakeHolder is a wire-speaking holder that answers every request it
// reads with status and hands the request to seen, when set. It
// returns the holder's address.
func fakeHolder(t *testing.T, status wire.Status, seen chan<- wire.Request) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := wire.NewReader(conn), wire.NewWriter(conn)
				var reqs []wire.Request
				for {
					if _, err := r.ReadRequests(&reqs); err != nil {
						return
					}
					for _, req := range reqs {
						if seen != nil {
							seen <- req
						}
						if w.WriteResponse(&wire.Response{ID: req.ID, Status: status}) != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestQuorumReadGivesUpOnHolderStatus checks that a QUORUM read whose
// holder answers with a failing status — a deadline shed or a server
// error — returns instead of waiting for an untried holder that is
// never asked. Two real holders and one failing holder share every key;
// a read that asks the failing holder first fails with its status,
// the others report the key missing.
func TestQuorumReadGivesUpOnHolderStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status wire.Status
		is     func(error) bool
	}{
		{"shed", wire.StatusDeadlineExceeded, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"error", wire.StatusError, func(err error) bool { return err != nil && strings.Contains(err.Error(), "server error") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := make(map[sched.ServerID]string, 3)
			for i := range 2 {
				srv, err := NewServer(ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Replication: 3})
				if err != nil {
					t.Fatalf("NewServer %d: %v", i, err)
				}
				t.Cleanup(func() { _ = srv.Close() })
				addrs[srv.ID()] = srv.Addr()
			}
			addrs[2] = fakeHolder(t, tc.status, nil)
			// No request timeout: a read that waits for a holder nobody
			// asked would wait forever.
			client, err := NewClient(ClientConfig{Servers: addrs, Replicas: 3})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			t.Cleanup(func() { _ = client.Close() })

			statusFailures := 0
			for k := range 16 {
				key := fmt.Sprintf("status-%02d", k)
				done := make(chan error, 1)
				go func() {
					_, err := client.GetLevel(context.Background(), key, wire.ConsistencyQuorum)
					done <- err
				}()
				select {
				case err := <-done:
					switch {
					case errors.Is(err, ErrNotFound):
					case tc.is(err):
						statusFailures++
					default:
						t.Fatalf("QUORUM read of %q: err = %v, want ErrNotFound or the holder's %s", key, err, tc.name)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("QUORUM read of %q still blocked after 5s", key)
				}
			}
			if statusFailures == 0 {
				t.Fatal("no read asked the failing holder")
			}
		})
	}
}

// TestDetachedWriteCarriesDrainDeadline pins the deadline a write's
// requests carry. A QUORUM write on three holders returns at two acks
// and leaves the third to drain, so every holder gets the drain bound
// (the request timeout), not the caller's shorter deadline; an ALL
// write waits for every holder and carries the caller's deadline.
func TestDetachedWriteCarriesDrainDeadline(t *testing.T) {
	const timeout, callerBudget = 3 * time.Second, 500 * time.Millisecond
	seen := make(chan wire.Request, 8) // more than the two puts send: the fake never blocks
	addrs := make(map[sched.ServerID]string, 3)
	for i := range 2 {
		srv, err := NewServer(ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0", Replication: 3})
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	addrs[2] = fakeHolder(t, wire.StatusOK, seen)
	client, err := NewClient(ClientConfig{Servers: addrs, Replicas: 3, RequestTimeout: timeout})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	for _, tc := range []struct {
		level    wire.Consistency
		min, max time.Duration
	}{
		{wire.ConsistencyQuorum, callerBudget, timeout},
		{wire.ConsistencyAll, 0, callerBudget},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), callerBudget)
		err := client.PutLevel(ctx, "k", []byte("v"), tc.level)
		cancel()
		if err != nil {
			t.Fatalf("%s put: %v", tc.level, err)
		}
		select {
		case req := <-seen:
			if dl := time.Duration(req.DeadlineNanos); dl <= tc.min || dl > tc.max {
				t.Errorf("%s put carried a %v deadline, want in (%v, %v]", tc.level, dl, tc.min, tc.max)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s put never reached the recording holder", tc.level)
		}
	}
}

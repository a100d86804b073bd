package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
	"github.com/daskv/daskv/internal/workload"
)

// startCluster launches n loopback servers and a connected client.
func startCluster(t *testing.T, n int, policy sched.Factory, cost CostModel) (*Client, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make(map[sched.ServerID]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(ServerConfig{
			ID:     sched.ServerID(i),
			Addr:   "127.0.0.1:0",
			Policy: policy,
			Cost:   cost,
		})
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		servers[i] = srv
		addrs[srv.ID()] = srv.Addr()
		t.Cleanup(func() { _ = srv.Close() })
	}
	client, err := NewClient(ClientConfig{Servers: addrs, Adaptive: true})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client, servers
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key should not be found")
	}
	s.Put("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q/%v", v, ok)
	}
	// Returned value is a copy.
	v[0] = 'X'
	v2, _ := s.Get("a")
	if string(v2) != "1" {
		t.Fatal("Get leaked internal buffer")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Delete("a") {
		t.Fatal("Delete existing should report true")
	}
	if s.Delete("a") {
		t.Fatal("Delete absent should report false")
	}
}

func TestStorePutCopiesInput(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'Z'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
}

func TestPutGetDeleteSingleServer(t *testing.T) {
	client, _ := startCluster(t, 1, nil, nil)
	ctx := context.Background()
	if err := client.Put(ctx, "greeting", []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := client.Get(ctx, "greeting")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "hello" {
		t.Fatalf("Get = %q, want hello", v)
	}
	if err := client.Delete(ctx, "greeting"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := client.Get(ctx, "greeting"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := client.Delete(ctx, "greeting"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete absent = %v, want ErrNotFound", err)
	}
}

func TestMGetAcrossServers(t *testing.T) {
	client, servers := startCluster(t, 4, nil, nil)
	ctx := context.Background()
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = workload.KeyName(i)
		if err := client.Put(ctx, keys[i], []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	res, err := client.MGet(ctx, keys)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if len(res) != 40 {
		t.Fatalf("MGet returned %d values, want 40", len(res))
	}
	for i, k := range keys {
		if string(res[k]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s = %q", k, res[k])
		}
	}
	// Work should have spread across all servers.
	for _, srv := range servers {
		if srv.Served() == 0 {
			t.Fatalf("server %d served nothing", srv.ID())
		}
	}
}

func TestMGetMissingKeysAbsent(t *testing.T) {
	client, _ := startCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := client.Put(ctx, "present", []byte("yes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	res, err := client.MGet(ctx, []string{"present", "absent"})
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if len(res) != 1 || string(res["present"]) != "yes" {
		t.Fatalf("MGet = %v", res)
	}
	if _, ok := res["absent"]; ok {
		t.Fatal("absent key should not be in result")
	}
}

func TestMGetEmpty(t *testing.T) {
	client, _ := startCluster(t, 1, nil, nil)
	res, err := client.MGet(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("MGet(nil) = %v, %v", res, err)
	}
}

func TestMGetContextCancel(t *testing.T) {
	// A slow cost model so the op sits in service long enough to cancel.
	cost := func(wire.OpType, int, int) time.Duration { return 200 * time.Millisecond }
	client, _ := startCluster(t, 1, nil, cost)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := client.MGet(ctx, []string{"k"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MGet = %v, want DeadlineExceeded", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	client, _ := startCluster(t, 3, nil, nil)
	ctx := context.Background()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				if err := client.Put(ctx, k, []byte(k)); err != nil {
					errs <- err
					return
				}
				v, err := client.Get(ctx, k)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != k {
					errs <- fmt.Errorf("got %q want %q", v, k)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFeedbackReachesEstimator(t *testing.T) {
	cost := func(wire.OpType, int, int) time.Duration { return time.Millisecond }
	client, servers := startCluster(t, 1, nil, cost)
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if err := client.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	speed, _, ok := client.est.Snapshot(servers[0].ID())
	if !ok {
		t.Fatal("estimator never observed feedback")
	}
	if speed <= 0 {
		t.Fatalf("estimated speed = %v, want positive", speed)
	}
}

func TestServerQueuesUnderLoad(t *testing.T) {
	// One worker, 5ms ops: firing 20 concurrent ops must queue.
	cost := func(wire.OpType, int, int) time.Duration { return 5 * time.Millisecond }
	client, servers := startCluster(t, 1, core.Factory(core.DefaultOptions()), cost)
	ctx := context.Background()
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		i := i
		go func() {
			done <- client.Put(ctx, fmt.Sprintf("k%d", i), []byte("v"))
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if servers[0].Served() != 20 {
		t.Fatalf("Served = %d, want 20", servers[0].Served())
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(ServerConfig{ID: 1, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClientFailsAfterServerClose(t *testing.T) {
	client, servers := startCluster(t, 1, nil, nil)
	ctx := context.Background()
	if err := client.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_ = servers[0].Close()
	// The in-flight connection is dead; subsequent calls must error,
	// not hang.
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := client.Get(ctx2, "k"); err == nil {
		t.Fatal("Get after server close should error")
	}
}

func TestClientClosedErrors(t *testing.T) {
	client, _ := startCluster(t, 1, nil, nil)
	_ = client.Close()
	if _, err := client.Get(context.Background(), "k"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Get = %v, want ErrClientClosed", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("empty server set should error")
	}
	if _, err := NewClient(ClientConfig{
		Servers:     map[sched.ServerID]string{1: "127.0.0.1:1"},
		DialTimeout: 50 * time.Millisecond,
	}); err == nil {
		t.Fatal("unreachable server should error")
	}
}

func TestLargeValues(t *testing.T) {
	client, _ := startCluster(t, 2, nil, nil)
	ctx := context.Background()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := client.Put(ctx, "big", big); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := client.Get(ctx, "big")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(v) != len(big) {
		t.Fatalf("len = %d, want %d", len(v), len(big))
	}
	for i := 0; i < len(big); i += 4099 {
		if v[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestTagsReachServerQueue(t *testing.T) {
	// Use a capture policy to verify wire tags land in sched.Tags.
	captured := make(chan sched.Tags, 64)
	capturing := func(uint64) sched.Policy { return &capturePolicy{inner: sched.NewFCFS(), tags: captured} }
	client, _ := startCluster(t, 1, capturing, nil)
	ctx := context.Background()
	keys := []string{"a", "bb", "ccc"}
	for _, k := range keys {
		if err := client.Put(ctx, k, []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, err := client.MGet(ctx, keys); err != nil {
		t.Fatalf("MGet: %v", err)
	}
	// 3 puts + 3 gets.
	sawFanout3 := false
	for i := 0; i < 6; i++ {
		tags := <-captured
		if tags.Fanout == 3 {
			sawFanout3 = true
			if tags.RemainingTime <= 0 {
				t.Fatal("mget op missing RemainingTime tag")
			}
		}
	}
	if !sawFanout3 {
		t.Fatal("no op carried the multiget fanout tag")
	}
}

type capturePolicy struct {
	inner sched.Policy
	tags  chan sched.Tags
}

func (p *capturePolicy) Name() string { return "capture" }

func (p *capturePolicy) Push(op *sched.Op, now time.Duration) {
	select {
	case p.tags <- op.Tags:
	default:
	}
	p.inner.Push(op, now)
}

func (p *capturePolicy) Pop(now time.Duration) *sched.Op { return p.inner.Pop(now) }

func (p *capturePolicy) Len() int { return p.inner.Len() }

func (p *capturePolicy) BacklogDemand() time.Duration { return p.inner.BacklogDemand() }

func TestReplicatedPutReachesAllReplicas(t *testing.T) {
	servers := make([]*Server, 3)
	addrs := make(map[sched.ServerID]string, 3)
	for i := 0; i < 3; i++ {
		srv, err := NewServer(ServerConfig{ID: sched.ServerID(i), Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
		addrs[srv.ID()] = srv.Addr()
		t.Cleanup(func() { _ = srv.Close() })
	}
	client, err := NewClient(ClientConfig{Servers: addrs, Adaptive: true, Replicas: 3})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "replicated", []byte("everywhere")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, srv := range servers {
		v, ok := srv.Store().Get("replicated")
		if !ok || string(v) != "everywhere" {
			t.Fatalf("server %d missing replica (ok=%v v=%q)", srv.ID(), ok, v)
		}
	}
	// Delete removes from all replicas.
	if err := client.Delete(ctx, "replicated"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for _, srv := range servers {
		if _, ok := srv.Store().Get("replicated"); ok {
			t.Fatalf("server %d still holds deleted key", srv.ID())
		}
	}
	if err := client.Delete(ctx, "replicated"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete absent replicated key = %v, want ErrNotFound", err)
	}
}

func TestReplicatedReadsServeFromReplicas(t *testing.T) {
	client, _ := func() (*Client, []*Server) {
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
		c, err := NewClient(ClientConfig{Servers: addrs, Adaptive: true, Replicas: 2, ReadFrom: FastestRead})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c, servers
	}()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("r%d", i)
		if err := client.Put(ctx, k, []byte(k)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		v, err := client.Get(ctx, k)
		if err != nil || string(v) != k {
			t.Fatalf("Get %s = %q, %v", k, v, err)
		}
	}
}

func TestFastestReadAvoidsSlowReplica(t *testing.T) {
	cost := func(wire.OpType, int, int) time.Duration { return 2 * time.Millisecond }
	servers := make([]*Server, 2)
	addrs := make(map[sched.ServerID]string, 2)
	speeds := []float64{1.0, 0.1}
	for i := 0; i < 2; i++ {
		srv, err := NewServer(ServerConfig{
			ID: sched.ServerID(i), Addr: "127.0.0.1:0", Cost: cost, SpeedFactor: speeds[i],
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		servers[i] = srv
		addrs[srv.ID()] = srv.Addr()
		t.Cleanup(func() { _ = srv.Close() })
	}
	client, err := NewClient(ClientConfig{
		Servers: addrs, Adaptive: true, Replicas: 2, ReadFrom: FastestRead,
		Demand: DemandModel(cost),
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "hotkey", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Warm the estimator with some traffic on both servers (puts fan
	// out to both, so speed feedback arrives from each).
	for i := 0; i < 15; i++ {
		if err := client.Put(ctx, fmt.Sprintf("warm%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	fastBefore := servers[0].Served()
	slowBefore := servers[1].Served()
	for i := 0; i < 40; i++ {
		if _, err := client.Get(ctx, "hotkey"); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	fastGets := servers[0].Served() - fastBefore
	slowGets := servers[1].Served() - slowBefore
	if fastGets <= slowGets {
		t.Fatalf("fastest-read routed %d gets to the fast server vs %d to the 0.1x server",
			fastGets, slowGets)
	}
}

func TestNewClientReplicaValidation(t *testing.T) {
	addrs := map[sched.ServerID]string{1: "127.0.0.1:1"}
	if _, err := NewClient(ClientConfig{Servers: addrs, Replicas: 5}); err == nil {
		t.Fatal("replicas > servers should error")
	}
	if _, err := NewClient(ClientConfig{Servers: addrs, Replicas: -1}); err == nil {
		t.Fatal("negative replicas should error")
	}
	if _, err := NewClient(ClientConfig{Servers: addrs, ReadFrom: ReadPolicy(9)}); err == nil {
		t.Fatal("unknown read policy should error")
	}
}

func TestStatsCommand(t *testing.T) {
	client, servers := startCluster(t, 2, nil, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := client.Put(ctx, fmt.Sprintf("s%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	total := 0
	for _, id := range client.Servers() {
		stats, err := client.Stats(ctx, id)
		if err != nil {
			t.Fatalf("Stats(%d): %v", id, err)
		}
		if stats.Server != int(id) {
			t.Fatalf("stats.Server = %d, want %d", stats.Server, id)
		}
		if stats.Policy != "FCFS" {
			t.Fatalf("stats.Policy = %q, want FCFS", stats.Policy)
		}
		if stats.Served == 0 {
			t.Fatalf("server %d reports zero served after traffic", id)
		}
		if stats.UptimeNanos <= 0 {
			t.Fatal("uptime should be positive")
		}
		total += stats.Keys
	}
	if total != 10 {
		t.Fatalf("cluster holds %d keys, want 10", total)
	}
	_ = servers
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	s.Put("binary", []byte{0, 1, 2, 255})
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	restored := NewStore()
	if err := restored.LoadFrom(&buf); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if restored.Len() != 101 {
		t.Fatalf("restored %d keys, want 101", restored.Len())
	}
	v, ok := restored.Get("k042")
	if !ok || string(v) != "value-42" {
		t.Fatalf("k042 = %q/%v", v, ok)
	}
	b, ok := restored.Get("binary")
	if !ok || !bytes.Equal(b, []byte{0, 1, 2, 255}) {
		t.Fatalf("binary = %v/%v", b, ok)
	}
}

func TestStoreLoadFromBadInput(t *testing.T) {
	s := NewStore()
	if err := s.LoadFrom(bytes.NewBufferString("{bad json")); err == nil {
		t.Fatal("malformed snapshot should error")
	}
}

func TestServerPersistenceAcrossRestart(t *testing.T) {
	cfg := ServerConfig{
		ID: 0, Addr: "127.0.0.1:0",
		WALDir: t.TempDir(), WALSync: wal.SyncPolicy{Mode: wal.SyncNone},
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	client, err := NewClient(ClientConfig{Servers: map[sched.ServerID]string{0: srv.Addr()}})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	if err := client.Put(ctx, "durable", []byte("survives")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_ = client.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Restart from the snapshot the graceful close compacted the log into.
	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	if rep := srv2.WALRecovery(); !rep.SnapshotLoaded || rep.RecordsApplied != 0 {
		t.Fatalf("recovery = %+v, want snapshot-only", rep)
	}
	v, ok := srv2.Store().Get("durable")
	if !ok || string(v) != "survives" {
		t.Fatalf("after restart: %q/%v", v, ok)
	}
}

// TestServerCorruptSnapshotRejected: a snapshot in the log directory
// that does not parse fails startup instead of serving a partial store.
func TestServerCorruptSnapshotRejected(t *testing.T) {
	cfg := ServerConfig{ID: 0, Addr: "127.0.0.1:0", WALDir: t.TempDir()}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Store().Put("k", []byte("v"))
	if err := srv.Close(); err != nil { // compacts into a .snap
		t.Fatalf("Close: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(cfg.WALDir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after close = %v (%v), want one", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("{not json"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if srv2, err := NewServer(cfg); err == nil {
		_ = srv2.Close()
		t.Fatal("corrupt snapshot should fail startup")
	}
}

func TestServerRejectsGarbageFrames(t *testing.T) {
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	// Garbage: valid length prefix, junk payload. Server must drop the
	// connection without crashing and keep serving others.
	if _, err := conn.Write([]byte{0, 0, 0, 4, 9, 9, 9, 9}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close after garbage frame")
	}
	// A fresh, well-behaved client still works.
	client, err := NewClient(ClientConfig{Servers: map[sched.ServerID]string{0: srv.Addr()}})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if err := client.Put(context.Background(), "after-garbage", []byte("ok")); err != nil {
		t.Fatalf("Put after garbage: %v", err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr := srv.Addr()
	client, err := NewClient(ClientConfig{
		Servers:          map[sched.ServerID]string{0: addr},
		ReconnectBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Restart on the same address.
	var srv2 *Server
	for attempt := 0; attempt < 50; attempt++ {
		srv2, err = NewServer(ServerConfig{ID: 0, Addr: addr})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = srv2.Close() })

	// The client should recover within a few backoff windows.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = client.Put(ctx, "k", []byte("v2"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	v, ok := srv2.Store().Get("k")
	if !ok || string(v) != "v2" {
		t.Fatalf("after reconnect: %q/%v", v, ok)
	}
}

func TestReconnectBackoffFailsFast(t *testing.T) {
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	client, err := NewClient(ClientConfig{
		Servers:          map[sched.ServerID]string{0: srv.Addr()},
		ReconnectBackoff: time.Hour, // never expires within this test
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	if err := client.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_ = srv.Close()
	// First call observes the dead conn and schedules a redial; with an
	// hour-long backoff every subsequent call must fail immediately.
	_, _ = client.Get(ctx, "k")
	start := time.Now()
	if _, err := client.Get(ctx, "k"); err == nil {
		t.Fatal("Get against dead server should fail")
	}
	if time.Since(start) > time.Second {
		t.Fatal("backoff path should fail fast, not block on dialing")
	}
}

func TestMSet(t *testing.T) {
	client, servers := startCluster(t, 3, nil, nil)
	ctx := context.Background()
	pairs := make(map[string][]byte, 60)
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("mset-%03d", i)
		pairs[k] = []byte(fmt.Sprintf("value-%d", i))
	}
	if err := client.MSet(ctx, pairs); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	got, err := client.MGet(ctx, keys)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if len(got) != 60 {
		t.Fatalf("MGet returned %d values, want 60", len(got))
	}
	for k, want := range pairs {
		if string(got[k]) != string(want) {
			t.Fatalf("key %s = %q, want %q", k, got[k], want)
		}
	}
	if err := client.MSet(ctx, nil); err != nil {
		t.Fatalf("MSet(nil): %v", err)
	}
	_ = servers
}

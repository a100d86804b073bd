package kv

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// batchKeys builds n preloadable key/value pairs.
func batchKeys(n int) map[string][]byte {
	pairs := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		pairs[fmt.Sprintf("batch-%03d", i)] = []byte(fmt.Sprintf("value-%03d", i))
	}
	return pairs
}

// TestBatchStatsCounters checks the server accounts batch admissions and
// coalesced response flushes.
func TestBatchStatsCounters(t *testing.T) {
	srv, err := NewServer(ServerConfig{ID: 0, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := NewClient(ClientConfig{
		Servers: map[sched.ServerID]string{0: srv.Addr()},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	ctx := context.Background()
	pairs := batchKeys(32)
	if err := client.MSet(ctx, pairs); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	if _, err := client.MGet(ctx, keys); err != nil {
		t.Fatalf("MGet: %v", err)
	}
	stats, err := client.Stats(ctx, 0)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Batches == 0 {
		t.Fatal("server admitted no batch frames")
	}
	if stats.BatchOps < uint64(len(pairs)) {
		t.Fatalf("batchOps = %d, want >= %d", stats.BatchOps, len(pairs))
	}
	if stats.RespFrames == 0 || stats.RespFlushes == 0 {
		t.Fatalf("response accounting missing: frames=%d flushes=%d",
			stats.RespFrames, stats.RespFlushes)
	}
	if stats.RespFlushes > stats.RespFrames {
		t.Fatalf("flushes=%d exceed frames=%d", stats.RespFlushes, stats.RespFrames)
	}
}

// TestDispatchAllocCeiling pins the client dispatch encode path: with
// the request slice built and the writer's scratch warmed, sending a
// per-server group must not allocate at all.
func TestDispatchAllocCeiling(t *testing.T) {
	c := &Client{cfg: ClientConfig{}}
	cc := &clientConn{client: c, w: wire.NewWriter(io.Discard)}
	reqs := make([]wire.Request, 16)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint64(i), Type: wire.OpGet, Key: fmt.Sprintf("alloc-%02d", i)}
	}
	if err := c.writeChunked(cc, reqs); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := c.writeChunked(cc, reqs); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("dispatch encode allocates %.1f per group in steady state, want 0", got)
	}
}

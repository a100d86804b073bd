package kv_test

// Data-plane hot-path benchmarks: the live multiget/multiset round trip
// over loopback TCP, with the transport costs the scheduler cannot see —
// frames flushed, bytes written, allocations per operation — surfaced as
// custom metrics. These are the before/after evidence for the per-server
// batching work (EXPERIMENTS.md "Data-plane batching"); CI's bench-smoke
// job runs them with -benchmem on every PR.

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// countingConn wraps a client-side connection and counts Write calls
// (one per bufio flush, i.e. one syscall/wire frame burst) and bytes.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
	bytes  *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// liveBenchCluster starts n loopback servers with no cost model and a
// client whose outbound writes are counted.
func liveBenchCluster(tb testing.TB, n int, cfg kv.ClientConfig) (*kv.Client, []*kv.Server, *atomic.Int64, *atomic.Int64) {
	tb.Helper()
	servers := make([]*kv.Server, 0, n)
	addrs := make(map[sched.ServerID]string, n)
	for i := 0; i < n; i++ {
		srv, err := kv.NewServer(kv.ServerConfig{
			ID:   sched.ServerID(i),
			Addr: "127.0.0.1:0",
		})
		if err != nil {
			tb.Fatalf("server %d: %v", i, err)
		}
		servers = append(servers, srv)
		addrs[srv.ID()] = srv.Addr()
	}
	tb.Cleanup(func() {
		for _, s := range servers {
			_ = s.Close()
		}
	})
	writes := new(atomic.Int64)
	bytes := new(atomic.Int64)
	cfg.Servers = addrs
	cfg.TraceDepth = -1 // tracing off: measure the data plane, not the ring
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, writes: writes, bytes: bytes}, nil
	}
	client, err := kv.NewClient(cfg)
	if err != nil {
		tb.Fatalf("client: %v", err)
	}
	tb.Cleanup(func() { _ = client.Close() })
	return client, servers, writes, bytes
}

// benchKeys preloads fanout keys, one per ring partition walk, and
// returns them.
func benchKeys(tb testing.TB, client *kv.Client, fanout int) []string {
	tb.Helper()
	ctx := context.Background()
	keys := make([]string, fanout)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%04d", i)
		if err := client.Put(ctx, keys[i], []byte("bench-value-0123456789")); err != nil {
			tb.Fatalf("preload %s: %v", keys[i], err)
		}
	}
	return keys
}

// BenchmarkLiveMget measures one multiget round trip over loopback at
// fan-out 4/16 on a 4-server cluster: ns/op and allocs/op for the whole
// client dispatch path, plus frames/op (client Write syscalls per
// multiget — O(ops) before per-server batching, O(servers) after).
func BenchmarkLiveMget(b *testing.B) {
	for _, fanout := range []int{4, 16} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			client, _, writes, bytes := liveBenchCluster(b, 4, kv.ClientConfig{})
			keys := benchKeys(b, client, fanout)
			ctx := context.Background()
			if _, err := client.MGet(ctx, keys); err != nil {
				b.Fatalf("warmup mget: %v", err)
			}
			writes.Store(0)
			bytes.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := client.MGet(ctx, keys)
				if err != nil {
					b.Fatalf("mget: %v", err)
				}
				if len(res) != fanout {
					b.Fatalf("mget returned %d/%d keys", len(res), fanout)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(writes.Load())/float64(b.N), "frames/op")
			b.ReportMetric(float64(bytes.Load())/float64(b.N), "wirebytes/op")
		})
	}
}

// BenchmarkLiveMSet measures a 64-key multiset on a 4-server cluster:
// before batching this spawns one goroutine and one frame per key.
func BenchmarkLiveMSet(b *testing.B) {
	const pairs = 64
	client, _, writes, _ := liveBenchCluster(b, 4, kv.ClientConfig{})
	batch := make(map[string][]byte, pairs)
	for i := 0; i < pairs; i++ {
		batch[fmt.Sprintf("mset-key-%04d", i)] = []byte("bench-value-0123456789")
	}
	ctx := context.Background()
	if err := client.MSet(ctx, batch); err != nil {
		b.Fatalf("warmup mset: %v", err)
	}
	writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.MSet(ctx, batch); err != nil {
			b.Fatalf("mset: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "frames/op")
}

// mgetAllocCeiling pins one fan-out-16 multiget on a 4-server loopback
// cluster, counted process-wide (client and servers together) with
// tracing off: 56 measured on linux/amd64 with go1.24, plus headroom.
const mgetAllocCeiling = 64

// TestMGetAllocCeiling gates the multiget data path's allocations per
// request: a return of per-group goroutines, per-op channels or
// per-request scratch shows up here long before it shows in a p99.
func TestMGetAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	client, _, _, _ := liveBenchCluster(t, 4, kv.ClientConfig{})
	keys := benchKeys(t, client, 16)
	ctx := context.Background()
	mget := func() {
		res, err := client.MGet(ctx, keys)
		if err != nil || len(res) != len(keys) {
			t.Fatalf("mget: %d/%d keys, err %v", len(res), len(keys), err)
		}
	}
	mget() // warm pools and scratch
	if got := testing.AllocsPerRun(200, mget); got > mgetAllocCeiling {
		t.Errorf("fan-out-16 multiget allocates %.0f per request, ceiling %d", got, mgetAllocCeiling)
	} else {
		t.Logf("fan-out-16 multiget allocates %.0f per request (ceiling %d)", got, mgetAllocCeiling)
	}
}

// BenchmarkLiveQuorumPut measures one QUORUM put on a 3-server loopback
// cluster at R = 3: the caller wakes at 2 acks, the third drains.
func BenchmarkLiveQuorumPut(b *testing.B) {
	client, _, writes, _ := liveBenchCluster(b, 3, kv.ClientConfig{Replicas: 3})
	ctx := context.Background()
	value := []byte("bench-value-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.PutLevel(ctx, "bench-quorum", value, wire.ConsistencyQuorum); err != nil {
			b.Fatalf("put: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "frames/op")
}

// BenchmarkLiveQuorumGet measures one QUORUM get on a 3-server loopback
// cluster at R = 3: two best-ranked holders, newest version wins.
func BenchmarkLiveQuorumGet(b *testing.B) {
	client, _, writes, _ := liveBenchCluster(b, 3, kv.ClientConfig{Replicas: 3})
	ctx := context.Background()
	if err := client.Put(ctx, "bench-quorum", []byte("bench-value-0123456789")); err != nil {
		b.Fatalf("preload: %v", err)
	}
	writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.GetLevel(ctx, "bench-quorum", wire.ConsistencyQuorum); err != nil {
			b.Fatalf("get: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "frames/op")
}

// TestQuorumAllocCeiling gates the replicated data paths' allocations
// per operation on a 3-server loopback cluster at R = 3, counted
// process-wide with tracing off. The R = 1 put shares the write path,
// so it is gated here too. Measured on linux/amd64 with go1.24: 14, 7,
// 10, 12 and 4 in table order; the ceilings add headroom.
func TestQuorumAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	ctx := context.Background()
	value := []byte("bench-value-0123456789")
	replicated, _, _, _ := liveBenchCluster(t, 3, kv.ClientConfig{Replicas: 3})
	single, _, _, _ := liveBenchCluster(t, 3, kv.ClientConfig{})
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	get := func(level wire.Consistency) func() {
		return func() {
			_, err := replicated.GetLevel(ctx, "alloc-key", level)
			must(err)
		}
	}
	put := func(c *kv.Client, level wire.Consistency) func() {
		return func() { must(c.PutLevel(ctx, "alloc-key", value, level)) }
	}
	for _, tc := range []struct {
		name    string
		op      func()
		ceiling float64
	}{
		{"quorum put", put(replicated, wire.ConsistencyQuorum), 18},
		{"quorum get", get(wire.ConsistencyQuorum), 10},
		{"all get", get(wire.ConsistencyAll), 13},
		{"default put", put(replicated, wire.ConsistencyDefault), 15},
		{"R=1 put", put(single, wire.ConsistencyDefault), 6},
	} {
		tc.op() // warm pools and scratch
		if got := testing.AllocsPerRun(200, tc.op); got > tc.ceiling {
			t.Errorf("%s allocates %.1f per operation, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s allocates %.1f per operation (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}

package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/dist"
	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// liveCost derives a per-op service demand from the key length so client
// and server agree on demands without a side channel: keys are padded by
// the workload driver to encode 1..6ms.
func liveCost(_ wire.OpType, keyLen, _ int) time.Duration {
	return time.Duration(keyLen%11+2) * 500 * time.Microsecond
}

// runE19 measures resilience rather than scheduling quality: a loopback
// cluster loses one server mid-run and gets it back (recovered from its
// write-ahead log) two thirds in. Clients run with per-request deadlines and
// read retries; the table reports how much traffic completed cleanly,
// how much degraded to partial results, and whether the deadline
// ceiling held through the outage.
func runE19(p Params, w io.Writer) error {
	p = p.withDefaults()
	header(w, "E19", "Chaos resilience: crash and restart under load (beyond the paper)",
		fmt.Sprintf("3 loopback servers, server 0 killed at t/3 and restarted at 2t/3, %v per policy", p.Live))
	fmt.Fprintf(w, "%-10s %9s %9s %9s %8s %9s %9s %9s\n",
		"policy", "requests", "ok", "degraded", "errors", "mean(ms)", "p99(ms)", "max(ms)")
	for _, pc := range []struct {
		name     string
		factory  sched.Factory
		adaptive bool
	}{
		{name: "FCFS", factory: sched.FCFSFactory},
		{name: "DAS", factory: core.Factory(core.DefaultOptions()), adaptive: true},
	} {
		r, err := runChaosOnce(pc.factory, pc.adaptive, p.Live)
		if err != nil {
			return fmt.Errorf("bench: chaos %s: %w", pc.name, err)
		}
		fmt.Fprintf(w, "%-10s %9d %9d %9d %8d %9s %9s %9s\n",
			pc.name, r.ok+r.degraded+r.failed, r.ok, r.degraded, r.failed,
			ms(r.sum.Mean()), ms(r.sum.P99()), ms(r.max))
	}
	return nil
}

// chaosResult aggregates one chaos run.
type chaosResult struct {
	sum      *metrics.Summary
	max      time.Duration
	ok       uint64
	degraded uint64
	failed   uint64
}

// chaosDeadline is the per-request budget clients run with; the max(ms)
// column shows whether any call overran it (plus retry/backoff slop).
const chaosDeadline = 250 * time.Millisecond

// runChaosOnce drives one policy through the kill/restart script.
func runChaosOnce(factory sched.Factory, adaptive bool, runFor time.Duration) (*chaosResult, error) {
	const (
		servers   = 3
		clients   = 12
		keyspace  = 600
		maxFanout = 6
	)
	dir, err := os.MkdirTemp("", "daskv-chaos-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	mkServer := func(i int, addr string) (*kv.Server, error) {
		return kv.NewServer(kv.ServerConfig{
			ID:      sched.ServerID(i),
			Addr:    addr,
			Policy:  factory,
			Cost:    liveCost,
			WALDir:  fmt.Sprintf("%s/server%d", dir, i),
			WALSync: wal.SyncPolicy{Mode: wal.SyncNone},
		})
	}
	srvs := make([]*kv.Server, servers)
	addrs := make(map[sched.ServerID]string, servers)
	defer func() {
		for _, s := range srvs {
			if s != nil {
				_ = s.Close()
			}
		}
	}()
	for i := 0; i < servers; i++ {
		srv, err := mkServer(i, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srvs[i] = srv
		addrs[srv.ID()] = srv.Addr()
	}
	client, err := kv.NewClient(kv.ClientConfig{
		Servers:          addrs,
		Adaptive:         adaptive,
		Demand:           kv.DemandModel(liveCost),
		RequestTimeout:   chaosDeadline,
		ReadRetries:      1,
		RetryBackoff:     5 * time.Millisecond,
		ReconnectBackoff: 100 * time.Millisecond,
		Seed:             11,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()

	ctx := context.Background()
	keys := make([]string, keyspace)
	rng := dist.NewRand(7)
	for i := range keys {
		pad := rng.IntN(11)
		keys[i] = fmt.Sprintf("key-%04d-%s", i, "xxxxxxxxxxx"[:pad])
		if err := client.Put(ctx, keys[i], []byte("value")); err != nil {
			return nil, err
		}
	}

	res := &chaosResult{sum: metrics.NewSummary(0)}
	var mu sync.Mutex
	deadline := time.Now().Add(runFor)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := dist.NewRand(uint64(c) + 100)
			for time.Now().Before(deadline) {
				k := 1 + crng.IntN(maxFanout)
				batch := make([]string, k)
				for i := range batch {
					batch[i] = keys[crng.IntN(keyspace)]
				}
				start := time.Now()
				_, err := client.MGet(ctx, batch)
				rct := time.Since(start)
				var perr *kv.PartialError
				mu.Lock()
				switch {
				case err == nil:
					res.ok++
				case errors.As(err, &perr):
					res.degraded++
				default:
					res.failed++
				}
				res.sum.Observe(rct)
				if rct > res.max {
					res.max = rct
				}
				mu.Unlock()
			}
		}()
	}

	// The fault script: stop server 0 a third in, restart it two thirds
	// in. The graceful Close compacted its log, so the restart loads one
	// snapshot.
	victimAddr := addrs[srvs[0].ID()]
	time.Sleep(runFor / 3)
	_ = srvs[0].Close()
	srvs[0] = nil
	time.Sleep(runFor / 3)
	for attempt := 0; attempt < 50; attempt++ {
		srv, rerr := mkServer(0, victimAddr)
		if rerr == nil {
			srvs[0] = srv
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	if srvs[0] == nil {
		return nil, fmt.Errorf("server 0 never rebound to %s", victimAddr)
	}
	return res, nil
}

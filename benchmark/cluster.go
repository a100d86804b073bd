package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/topology"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// cluster is one booted system under test: real kv.Servers on loopback
// TCP in this process and one shared kv.Client (one connection per
// server), preloaded with version 0 of every key.
type cluster struct {
	s       spec
	ks      *keyspace
	servers []*kv.Server
	addrs   map[sched.ServerID]string
	walRoot string
	client  *kv.Client
}

// cost is the server's simulated service time and, identically, the
// client's demand model: the workload states its sizes to the client
// (SizeHint), as an application that knows its own objects would.
func (s spec) cost() func(op wire.OpType, keyLen, valueLen int) time.Duration {
	if s.costPerByte == 0 {
		return nil
	}
	return func(_ wire.OpType, _, valueLen int) time.Duration {
		return time.Duration(valueLen) * s.costPerByte
	}
}

// ring is the client's key placement: servers 0..n-1, default vnodes.
func (s spec) ring() (*topology.Ring, error) {
	ids := make([]sched.ServerID, s.servers)
	for i := range ids {
		ids[i] = sched.ServerID(i)
	}
	return topology.NewRing(ids, 0)
}

func (c *cluster) serverConfig(i int) (kv.ServerConfig, error) {
	cfg := kv.ServerConfig{
		ID:      sched.ServerID(i),
		Addr:    "127.0.0.1:0",
		Policy:  core.Factory(core.LiveOptions()),
		Workers: c.s.workers,
		Cost:    kv.CostModel(c.s.cost()),
	}
	if c.s.walSync != "" {
		sync, err := wal.ParseSyncPolicy(c.s.walSync)
		if err != nil {
			return cfg, err
		}
		cfg.WALDir = filepath.Join(c.walRoot, fmt.Sprintf("srv-%d", i))
		cfg.WALSync = sync
	}
	return cfg, nil
}

// boot starts the servers, connects the untraced client and preloads
// the keyspace through it. workdir holds the WAL directories.
func boot(s spec, ks *keyspace, workdir string, seed uint64) (*cluster, error) {
	c := &cluster{s: s, ks: ks, addrs: make(map[sched.ServerID]string, s.servers)}
	if s.walSync != "" {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		c.walRoot = dir
	}
	for i := 0; i < s.servers; i++ {
		cfg, err := c.serverConfig(i)
		if err != nil {
			c.close()
			return nil, err
		}
		srv, err := kv.NewServer(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.addrs[srv.ID()] = srv.Addr()
	}
	cl, err := c.newClient(-1, seed)
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = cl
	if err := c.preload(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// newClient connects the shipped client configuration: adaptive DAS
// tagging, and — when the workload prices bytes — the matching demand
// model and size hints. traceDepth < 0 turns tracing off.
func (c *cluster) newClient(traceDepth int, seed uint64) (*kv.Client, error) {
	cfg := kv.ClientConfig{
		Servers:    c.addrs,
		Adaptive:   true,
		Seed:       seed | 1,
		TraceDepth: traceDepth,
	}
	if cost := c.s.cost(); cost != nil {
		cfg.Demand = kv.DemandModel(cost)
		cfg.SizeHint = func(_ wire.OpType, key string) int {
			if i := c.ks.index(key); i >= 0 {
				return int(c.ks.sizes[i])
			}
			return 0
		}
	}
	return kv.NewClient(cfg)
}

func (c *cluster) preload() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const chunk = 512
	for lo := 0; lo < c.s.keys; lo += chunk {
		hi := min(lo+chunk, c.s.keys)
		pairs := make(map[string][]byte, hi-lo)
		for i := lo; i < hi; i++ {
			pairs[c.ks.names[i]] = c.ks.fill(nil, i, 0)
		}
		if err := c.client.MSet(ctx, pairs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (c *cluster) stats() []wire.ServerStats {
	out := make([]wire.ServerStats, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.StatsSnapshot()
	}
	return out
}

// close stops the client and servers and removes the WAL directories.
func (c *cluster) close() {
	c.stop()
	if c.walRoot != "" {
		_ = os.RemoveAll(c.walRoot)
	}
}

// stop closes the client, then every server gracefully, keeping the
// WAL directories for reopenAndCheck.
func (c *cluster) stop() {
	if c.client != nil {
		_ = c.client.Close()
		c.client = nil
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
	c.servers = nil
}

// reopenAndCheck restarts every server from its WAL directory alone and
// counts the keys that hold neither the last acknowledged version nor a
// newer one that was sent — the durability check of the mixed workload.
func (c *cluster) reopenAndCheck(acked, issued []uint32) (misses int, err error) {
	ring, err := c.s.ring()
	if err != nil {
		return 0, err
	}
	stores := make([]*kv.Store, c.s.servers)
	for i := range stores {
		cfg, err := c.serverConfig(i)
		if err != nil {
			return 0, err
		}
		srv, err := kv.NewServer(cfg)
		if err != nil {
			return 0, fmt.Errorf("reopen server %d from its WAL: %w", i, err)
		}
		defer srv.Close()
		stores[i] = srv.Store()
	}
	for idx, name := range c.ks.names {
		v, ok := stores[ring.Lookup(name)].Get(name)
		if !ok {
			misses++
			continue
		}
		// issued exceeds acked only where a Put failed, which may or may
		// not have been applied.
		if got, ok := c.ks.check(v, idx); !ok || got < acked[idx] || got > issued[idx] {
			misses++
		}
	}
	return misses, nil
}

package kv

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/wire"
)

// This file is the client half of tunable consistency: per-request
// ONE/QUORUM/ALL levels layered on the existing last-writer-wins
// replication. The client coordinates quorums itself, each replicated
// operation one threshold call on the key's holders (holderCall): a
// write goes to every holder and the caller wakes after W
// acknowledgements (stragglers drain on the read loops, under the
// client's lifecycle); a read asks the R best-ranked holders, fails
// over on transport errors, and resolves conflicts with
// replica.Newest, scheduling read-repair when holders disagree. The
// wire.Consistency byte rides every request so servers and traces see
// the caller's intent, but no server-side coordination is required.

// Need returns how many of a key's replica holders must answer for a
// read or acknowledge a write at the given consistency level.
// ConsistencyDefault needs one answer for a read; a default write waits
// for every holder (see Client.write).
func Need(level wire.Consistency, replicas int) int {
	if replicas < 1 {
		replicas = 1
	}
	switch level {
	case wire.ConsistencyAll:
		return replicas
	case wire.ConsistencyQuorum:
		return replicas/2 + 1
	default:
		return 1
	}
}

// effectiveLevel resolves a per-call level against the client's
// configured default.
func (c *Client) effectiveLevel(level wire.Consistency) wire.Consistency {
	if level == wire.ConsistencyDefault {
		return c.cfg.DefaultConsistency
	}
	return level
}

// GetLevel fetches one key at an explicit consistency level.
//
//   - ONE (and the default) reads a single selector-chosen holder —
//     the latency-optimal path the DAS scheduling work targets.
//   - QUORUM reads ⌊R/2⌋+1 holders and returns the newest version
//     among them; paired with QUORUM writes it yields read-your-writes
//     through any single holder failure.
//   - ALL reads every holder; any unreachable holder fails the read.
//
// Multi-holder reads that observe divergent replicas schedule an
// asynchronous read-repair for the key.
func (c *Client) GetLevel(ctx context.Context, key string, level wire.Consistency) ([]byte, error) {
	eff := c.effectiveLevel(level)
	if Need(eff, c.cfg.Replicas) <= 1 {
		return c.get(ctx, key)
	}
	return c.readQuorum(ctx, key, eff)
}

// PutLevel stores one key at an explicit consistency level.
func (c *Client) PutLevel(ctx context.Context, key string, value []byte, level wire.Consistency) error {
	return c.PutTTLLevel(ctx, key, value, 0, level)
}

// PutTTLLevel stores one key with an expiry at an explicit consistency
// level. The write always goes to every holder; the level decides how
// many acknowledgements the foreground call waits for (ONE waits one,
// QUORUM ⌊R/2⌋+1, ALL and the default wait all). Unwaited replicas
// drain in the background and are reconciled by last-writer-wins
// read-repair if they miss the write entirely.
func (c *Client) PutTTLLevel(ctx context.Context, key string, value []byte, ttl time.Duration, level wire.Consistency) error {
	if ttl < 0 {
		return fmt.Errorf("kv: negative ttl %v", ttl)
	}
	_, err := c.write(ctx, wire.Request{
		Type: wire.OpPut, Key: key, Value: value, TTLNanos: int64(ttl),
		Consistency: c.effectiveLevel(level),
	})
	return err
}

// DeleteLevel removes one key at an explicit consistency level. Under
// ONE or QUORUM the not-found verdict reflects only the replicas whose
// acknowledgements were waited for; a key present solely on a slow
// straggler may report ErrNotFound even though the delete reaches it.
func (c *Client) DeleteLevel(ctx context.Context, key string, level wire.Consistency) error {
	found, err := c.write(ctx, wire.Request{
		Type: wire.OpDelete, Key: key, Consistency: c.effectiveLevel(level),
	})
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	return nil
}

// versionFor stamps a write: a replicated put carries one
// last-writer-wins version from the client's clock to every holder, so
// partial fan-outs reconcile under read-repair. Deletes and
// unreplicated puts carry none.
func (c *Client) versionFor(typ wire.OpType) uint64 {
	if typ != wire.OpPut || c.cfg.Replicas <= 1 {
		return 0
	}
	return uint64(c.vclock.Next())
}

// write sends one put or delete (req carrying its resolved level) to
// every holder of its key as one threshold call and returns once W of
// them acknowledged: Need's count for an explicit level, every holder
// for the default. It fails as soon as W is out of reach — for W = R,
// on the first holder that fails. It reports whether any acknowledging
// holder answered OK (a delete that found the key).
func (c *Client) write(ctx context.Context, req wire.Request) (bool, error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	req.Version = c.versionFor(req.Type)
	w := c.cfg.Replicas
	if req.Consistency != wire.ConsistencyDefault {
		w = Need(req.Consistency, w)
	}
	m := c.holderCall(ctx, req, w)
	defer m.finish()
	firstErr := m.answers()
	found := slices.ContainsFunc(m.reads, func(r replica.ReadResult) bool { return r.Found })
	if len(m.reads) < w {
		if firstErr == nil { // a detached write whose caller left first
			firstErr = ctx.Err()
		}
		return found, fmt.Errorf("kv: %s write of %q: %d/%d holders acknowledged: %w",
			req.Consistency, req.Key, len(m.reads), w, firstErr)
	}
	return found, nil
}

// readQuorum reads key from its R best-ranked holders (R per level),
// failing over to an untried holder on a transport error, and returns
// the newest version among the definitive answers. A definitive
// not-found counts toward R but never outranks a found value;
// divergent answers schedule read-repair.
func (c *Client) readQuorum(ctx context.Context, key string, level wire.Consistency) ([]byte, error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	r := Need(level, c.cfg.Replicas)
	m := c.holderCall(ctx, wire.Request{Type: wire.OpGet, Key: key, Consistency: level}, r)
	defer m.finish()
	if firstErr := m.answers(); len(m.reads) < r {
		return nil, fmt.Errorf("kv: %s read of %q: %d/%d replicas answered: %w",
			level, key, len(m.reads), r, firstErr)
	}
	newest, found := replica.Newest(m.reads)
	if !found {
		return nil, ErrNotFound
	}
	for _, rd := range m.reads {
		if !rd.Found || rd.Version < newest.Version {
			c.maybeRepair(key)
			break
		}
	}
	for i := range m.slots {
		if s := &m.slots[i]; s.op.Server == newest.Server {
			s.value = nil // the caller's now
		}
	}
	return newest.Value, nil
}

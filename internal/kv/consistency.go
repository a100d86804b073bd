package kv

import (
	"context"
	"fmt"
	"time"

	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wire"
)

// This file is the client half of tunable consistency: per-request
// ONE/QUORUM/ALL levels layered on the existing last-writer-wins
// replication. The client coordinates quorums itself — writes fan out
// to every holder and the foreground call returns after W
// acknowledgements (stragglers drain in the background under the
// client's lifecycle), reads consult R-ranked holders until `need`
// definitive answers arrive and resolve conflicts with
// replica.Newest, scheduling read-repair when holders disagree. The
// wire.Consistency byte rides every request so servers and traces see
// the caller's intent, but no server-side coordination is required.

// Need returns how many of a key's replica holders must answer for a
// read or acknowledge a write at the given consistency level.
// ConsistencyDefault maps to the legacy pre-cluster behavior and needs
// one answer (writes still fan out to every holder and wait for all;
// see Client.PutTTL).
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
// level. The write always fans out to every holder; the level decides
// how many acknowledgements the foreground call waits for (ONE waits
// one, QUORUM ⌊R/2⌋+1, ALL and the default wait all). Unwaited
// replicas drain in the background and are reconciled by last-writer-
// wins read-repair if they miss the write entirely.
func (c *Client) PutTTLLevel(ctx context.Context, key string, value []byte, ttl time.Duration, level wire.Consistency) error {
	if ttl < 0 {
		return fmt.Errorf("kv: negative ttl %v", ttl)
	}
	_, err := c.writeLevel(ctx, wire.Request{
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
	found, err := c.writeLevel(ctx, wire.Request{
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

// writeLevel routes one write (req carrying its resolved level) by
// consistency level: the default and any level whose W covers the
// holder set use the synchronous wait-all fan-out; a genuine W < N
// quorum write waits W acknowledgements in the foreground and drains
// the stragglers in the background.
func (c *Client) writeLevel(ctx context.Context, req wire.Request) (bool, error) {
	level, key := req.Consistency, req.Key
	holders := c.place.For(key)
	w := Need(level, len(holders))
	if level == wire.ConsistencyDefault || w >= len(holders) {
		return c.fanoutWrite(ctx, req)
	}

	// W < N: every holder still gets the write, but the caller returns
	// after W acks. The per-holder requests run under a background
	// context so the foreground return does not cancel stragglers; a
	// collector goroutine (tracked like read-repair, drained by Close)
	// owns the channel until every holder resolved.
	timeout := c.cfg.RequestTimeout
	if timeout <= 0 {
		timeout = readRepairTimeout
	}
	c.repairMu.Lock()
	background := !c.repairClosed
	if background {
		c.repairWG.Add(1)
	}
	c.repairMu.Unlock()
	if !background {
		// Client is closing; no background drain is available, so fall
		// back to the synchronous fan-out (which fails fast).
		return c.fanoutWrite(ctx, req)
	}
	if req.Type == wire.OpPut {
		req.Version = uint64(c.vclock.Next())
	}

	bctx, bcancel := context.WithTimeout(context.Background(), timeout)
	type outcome struct {
		ok  bool
		err error
	}
	results := make(chan outcome, len(holders))
	for _, server := range holders {
		server := server
		go func() {
			resp, err := c.send(bctx, server, req)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{ok: resp.Status == wire.StatusOK}
		}()
	}
	type milestone struct {
		reached bool
		anyOK   bool
		err     error
	}
	ackCh := make(chan milestone, 1)
	go func() {
		defer c.repairWG.Done()
		defer bcancel()
		acks, sent, anyOK := 0, false, false
		var firstErr error
		for range holders {
			r := <-results
			if r.err == nil {
				acks++
				anyOK = anyOK || r.ok
			} else if firstErr == nil {
				firstErr = r.err
			}
			if !sent && acks >= w {
				ackCh <- milestone{reached: true, anyOK: anyOK}
				sent = true
			}
		}
		if !sent {
			ackCh <- milestone{anyOK: anyOK, err: firstErr}
		}
	}()

	fctx, cancel := c.opCtx(ctx)
	defer cancel()
	select {
	case m := <-ackCh:
		if m.reached {
			return m.anyOK, nil
		}
		if m.err != nil {
			return m.anyOK, fmt.Errorf("kv: %s write of %q below quorum: %w", level, key, m.err)
		}
		return m.anyOK, fmt.Errorf("kv: %s write of %q below quorum", level, key)
	case <-fctx.Done():
		return false, fctx.Err()
	}
}

// readQuorum reads `need` holders of key (ranked best-first by the
// selector's adaptive view), failing over to untried holders on
// transport errors, and returns the newest version among the
// definitive answers. A definitive not-found counts toward the quorum;
// observing divergent replicas schedules read-repair.
func (c *Client) readQuorum(ctx context.Context, key string, level wire.Consistency) ([]byte, error) {
	holders := c.place.For(key)
	n := Need(level, len(holders))
	if n > len(holders) {
		n = len(holders)
	}
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	now := c.now()
	demand, _ := c.demandFor(wire.OpGet, key, 0)
	order := make([]sched.ServerID, 0, len(holders))
	for _, sc := range c.sel.Scores(holders, demand, now) {
		order = append(order, sc.Server)
	}
	results := make(chan replica.ReadResult, len(order))
	dispatched := 0
	dispatch := func() {
		server := order[dispatched]
		dispatched++
		go func() {
			results <- c.getFrom(ctx, server, key, level)
		}()
	}
	for dispatched < n {
		dispatch()
	}
	reads := make([]replica.ReadResult, 0, len(order))
	received, definitive := 0, 0
	var firstErr error
	for definitive < n && received < dispatched {
		r := <-results
		received++
		reads = append(reads, r)
		if r.Err == nil {
			definitive++
			continue
		}
		if firstErr == nil {
			firstErr = r.Err
		}
		if dispatched < len(order) {
			dispatch()
		}
	}
	if definitive < n {
		if firstErr == nil {
			firstErr = ErrUnavailable
		}
		return nil, fmt.Errorf("kv: %s read of %q: %d/%d replicas answered: %w",
			level, key, definitive, n, firstErr)
	}

	newest, found := replica.Newest(reads)
	stale := false
	for _, r := range reads {
		if r.Err != nil {
			continue
		}
		if found && (!r.Found || r.Version < newest.Version) {
			stale = true
		}
	}
	if stale {
		c.maybeRepair(key)
	}
	// Surface the winning value; every other definitive read's buffer is
	// dead and returns to the pool.
	for _, r := range reads {
		if r.Err == nil && r.Found && (!found || r.Server != newest.Server) {
			putValueBuf(r.Value)
		}
	}
	if !found {
		return nil, ErrNotFound
	}
	return newest.Value, nil
}

package kv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/wal"
)

// TestStoreMerge pins the RMW contract: absent keys count from zero,
// totals accumulate under the shard lock, versions advance like puts,
// and a non-integer value or an int64 overflow fails the op without
// mutating.
func TestStoreMerge(t *testing.T) {
	s := NewStore()
	total, ver, err := s.Merge("ctr", 5, 0)
	if err != nil || total != 5 || ver != 1 {
		t.Fatalf("first merge = %d/%d/%v, want 5/1/nil", total, ver, err)
	}
	total, ver, err = s.Merge("ctr", -2, 0)
	if err != nil || total != 3 || ver != 2 {
		t.Fatalf("second merge = %d/%d/%v, want 3/2/nil", total, ver, err)
	}
	if v, ok := s.Get("ctr"); !ok || string(v) != "3" {
		t.Fatalf("Get after merges = %q/%v, want \"3\"", v, ok)
	}

	// A counter seeded by a plain put interoperates.
	s.Put("seeded", []byte("40"))
	if total, _, err = s.Merge("seeded", 2, 0); err != nil || total != 42 {
		t.Fatalf("merge over put = %d/%v, want 42", total, err)
	}

	// Non-integer values fail without mutating.
	s.Put("text", []byte("hello"))
	if _, _, err = s.Merge("text", 1, 0); err == nil {
		t.Fatal("merge over non-integer value succeeded")
	}
	if v, _ := s.Get("text"); string(v) != "hello" {
		t.Fatalf("failed merge mutated the value: %q", v)
	}

	// Overflow in either direction fails without mutating, rather than
	// wrapping to the opposite sign.
	for _, c := range []struct {
		start string
		delta int64
	}{
		{strconv.FormatInt(math.MaxInt64, 10), 1},
		{strconv.FormatInt(math.MinInt64, 10), -1},
		{"-1", math.MinInt64},
	} {
		s.Put("edge", []byte(c.start))
		_, before, _ := s.GetVersioned("edge")
		if total, _, err := s.Merge("edge", c.delta, 0); err == nil {
			t.Fatalf("merge %s%+d = %d, want overflow error", c.start, c.delta, total)
		}
		v, after, _ := s.GetVersioned("edge")
		if string(v) != c.start || after != before {
			t.Fatalf("overflowing merge mutated %s to %q (version %d -> %d)", c.start, v, before, after)
		}
	}
	// The largest representable total is still reachable.
	s.Put("edge", []byte(strconv.FormatInt(math.MaxInt64-1, 10)))
	if total, _, err := s.Merge("edge", 1, 0); err != nil || total != math.MaxInt64 {
		t.Fatalf("merge to MaxInt64 = %d/%v", total, err)
	}
}

// TestClientIncrEndToEnd drives OpIncr through the live wire path:
// increments accumulate, a plain Get sees the decimal total, and the
// guard rails (non-integer values, int64 overflow, negative TTLs) all
// refuse cleanly.
func TestClientIncrEndToEnd(t *testing.T) {
	srv := newWALServer(t, t.TempDir(), func(cfg *ServerConfig) {
		cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncCoalesce, Window: time.Millisecond}
	})
	defer func() { _ = srv.Close() }()
	client := connect(t, srv)
	ctx := context.Background()

	if total, err := client.Incr(ctx, "hits", 1); err != nil || total != 1 {
		t.Fatalf("first incr = %d/%v, want 1", total, err)
	}
	if total, err := client.Incr(ctx, "hits", 41); err != nil || total != 42 {
		t.Fatalf("second incr = %d/%v, want 42", total, err)
	}
	if v, err := client.Get(ctx, "hits"); err != nil || string(v) != "42" {
		t.Fatalf("Get = %q/%v, want \"42\"", v, err)
	}
	if total, err := client.Incr(ctx, "hits", -2); err != nil || total != 40 {
		t.Fatalf("negative incr = %d/%v, want 40", total, err)
	}

	if err := client.Put(ctx, "text", []byte("not-a-number")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := client.Incr(ctx, "text", 1); err == nil {
		t.Fatal("incr over a non-integer value succeeded")
	}

	// Overflow surfaces as an error and leaves the counter alone.
	if _, err := client.Incr(ctx, "hits", math.MaxInt64); err == nil {
		t.Fatal("overflowing incr succeeded")
	}
	if v, err := client.Get(ctx, "hits"); err != nil || string(v) != "40" {
		t.Fatalf("Get after overflowing incr = %q/%v, want \"40\"", v, err)
	}

	// A negative TTL is refused as PutTTL refuses it, before anything
	// reaches the server.
	if _, err := client.IncrTTL(ctx, "fresh", 1, -time.Second); err == nil {
		t.Fatal("IncrTTL accepted a negative ttl")
	}
	if err := client.PutTTL(ctx, "fresh", []byte("1"), -time.Second); err == nil {
		t.Fatal("PutTTL accepted a negative ttl")
	}
	if _, err := client.Get(ctx, "fresh"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after refused IncrTTL = %v, want ErrNotFound", err)
	}
}

// TestServerIncrCoalesceCrashRecovery is the durability acceptance
// test behind the coalesce policy's ack contract: concurrent clients
// hammer a few hot counters under `coalesce:5ms`, the server dies with
// kill -9 semantics (Crash: no flush, no snapshot), and the restarted
// server must hold every acknowledged increment exactly once — the
// folded windows replay to the exact totals, never double-counting.
func TestServerIncrCoalesceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, func(cfg *ServerConfig) {
		cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncCoalesce, Window: 5 * time.Millisecond}
		cfg.Workers = 4
	})
	client := connect(t, srv)
	ctx := context.Background()

	const (
		workers = 8
		perW    = 50
		keys    = 4
	)
	var acked [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := (g + i) % keys
				if _, err := client.Incr(ctx, fmt.Sprintf("ctr-%d", k), 1); err != nil {
					t.Errorf("Incr: %v", err)
					return
				}
				acked[k].Add(1)
			}
		}(g)
	}
	wg.Wait()
	st := srv.StatsSnapshot()
	if st.WAL == nil || st.WAL.CoalesceWindows == 0 {
		t.Fatalf("wal stats after coalesced load = %+v", st.WAL)
	}
	// Folding depth depends on how many acks share a window, which a
	// loaded test machine can squeeze to one op per window — strict
	// fold ratios are asserted by the deterministic WAL-package tests
	// (TestCoalesceBytesPerOpRatioGate); here only the accounting
	// invariant is load-independent.
	if st.WAL.CoalescedRecords > st.WAL.CoalescedOps {
		t.Fatalf("more records than ops: %d records for %d ops", st.WAL.CoalescedRecords, st.WAL.CoalescedOps)
	}
	_ = client.Close()
	srv.Crash()

	srv2 := newWALServer(t, dir, nil)
	defer func() { _ = srv2.Close() }()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("ctr-%d", k)
		v, ok := srv2.Store().Get(key)
		if !ok {
			t.Fatalf("%s missing after crash recovery", key)
		}
		got, perr := strconv.ParseInt(string(v), 10, 64)
		if perr != nil {
			t.Fatalf("%s recovered non-integer %q", key, v)
		}
		if want := acked[k].Load(); got != want {
			t.Fatalf("%s = %d after recovery, want exactly %d acked increments", key, got, want)
		}
	}
}

// Package kv is a live distributed key-value store built around the same
// scheduling machinery the simulator evaluates: servers front their
// worker pools with a pluggable sched.Policy queue, clients tag multiget
// operations with DAS metadata, and every response piggybacks the
// feedback that drives the adaptive estimator.
//
// This package goes beyond the paper (whose evaluation is simulation
// only): it demonstrates the scheduler on real sockets and real
// goroutines with the identical policy implementations.
package kv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// storeShards is the shard count of the in-memory store; a power of two
// keeps the index computation a mask.
const storeShards = 64

// entry is one stored value with optional expiry and its last-writer-
// wins version tag (unversioned writes get small local monotonic tags;
// replicated writes carry wall-anchored tags from replica.Clock).
type entry struct {
	value     []byte
	version   uint64
	expiresAt time.Time // zero = never
}

func (e entry) expired(now time.Time) bool {
	return !e.expiresAt.IsZero() && !now.Before(e.expiresAt)
}

// Mutation describes one applied store mutation as a MutationHook sees
// it: the exact state now held for the key (Delete true means the key
// was removed). Version and ExpiresAt are the values the map stores, so
// replaying mutations in per-key order reproduces the map exactly.
// Value aliases the stored slice — hooks must use it synchronously and
// never retain or modify it.
type Mutation struct {
	Key       string
	Value     []byte
	Version   uint64
	ExpiresAt time.Time // zero = no TTL
	Delete    bool
	// Merge marks a read-modify-write increment: Value/Version still
	// carry the absolute resulting state (so replay stays idempotent),
	// and Delta the signed amount this op added. The durability layer
	// uses the pair to fold increments in a coalescing window.
	Merge bool
	Delta int64
}

// MutationHook observes every applied mutation. It runs while the key's
// shard lock is held — so a hook sees each key's mutations in apply
// order, which is what lets the durability subsystem assign
// write-ahead-log sequence numbers that match map state — and returns
// an ack the store waits on after releasing the lock (nil = nothing to
// wait for). Keep the locked portion short; the expensive part (fsync)
// belongs in the ack.
type MutationHook func(Mutation) func() error

// Store is a sharded in-memory key-value map with optional per-key TTL,
// safe for concurrent use. Expired keys are hidden immediately and
// reclaimed lazily on access or via Sweep.
type Store struct {
	seed   maphash.Seed
	now    func() time.Time
	shards [storeShards]storeShard

	hook atomic.Pointer[MutationHook]

	durMu  sync.Mutex
	durErr error
}

type storeShard struct {
	mu sync.RWMutex
	m  map[string]entry
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{seed: maphash.MakeSeed(), now: time.Now}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

func (s *Store) shard(key string) *storeShard {
	h := maphash.String(s.seed, key)
	return &s.shards[h&(storeShards-1)]
}

// SetMutationHook installs h (nil removes the hook). Install before the
// store starts serving traffic: mutations racing the change may miss
// it.
func (s *Store) SetMutationHook(h MutationHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// notify invokes the mutation hook (if any); callers hold the key's
// shard lock.
func (s *Store) notify(m Mutation) func() error {
	hp := s.hook.Load()
	if hp == nil {
		return nil
	}
	return (*hp)(m)
}

// awaitDurable waits on a mutation's ack outside the shard lock. The
// first failure latches into DurabilityErr: the map is already mutated
// when an ack fails, so the store keeps serving reads but the server
// fails stop on further writes.
func (s *Store) awaitDurable(ack func() error) {
	if ack == nil {
		return
	}
	if err := ack(); err != nil {
		s.durMu.Lock()
		if s.durErr == nil {
			s.durErr = err
		}
		s.durMu.Unlock()
	}
}

// DurabilityErr returns the sticky first error any mutation ack
// reported (nil while healthy). Once set, the in-memory map may be
// ahead of the log and writes must not be acknowledged as durable.
func (s *Store) DurabilityErr() error {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durErr
}

// applyMutation replays one logged mutation verbatim — exact version
// and expiry, no hook, no version arbitration (the log is already in
// win order). A record whose expiry has passed by replay time removes
// the key instead, matching what a live sweep would have done.
func (s *Store) applyMutation(m Mutation) {
	sh := s.shard(m.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m.Delete || (!m.ExpiresAt.IsZero() && !s.now().Before(m.ExpiresAt)) {
		delete(sh.m, m.Key)
		return
	}
	v := make([]byte, len(m.Value))
	copy(v, m.Value)
	sh.m[m.Key] = entry{value: v, version: m.Version, expiresAt: m.ExpiresAt}
}

// Get returns a copy of the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	now := s.now()
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	if !ok || e.expired(now) {
		sh.mu.RUnlock()
		return nil, false
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	sh.mu.RUnlock()
	return out, true
}

// ValueLen returns the stored value's length in bytes without copying
// it (0 for absent or expired keys). The size-class admission path uses
// it to classify a hint-less get by the payload it will actually move —
// one shard read-lock and a map probe, no allocation.
func (s *Store) ValueLen(key string) int {
	now := s.now()
	sh := s.shard(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if !ok || e.expired(now) {
		return 0
	}
	return len(e.value)
}

// Put stores a copy of value under key with no expiry.
func (s *Store) Put(key string, value []byte) {
	s.PutTTL(key, value, 0)
}

// PutTTL stores a copy of value under key, expiring after ttl
// (0 = never).
func (s *Store) PutTTL(key string, value []byte, ttl time.Duration) {
	s.PutVersioned(key, value, ttl, 0)
}

// GetVersioned returns a copy of the value for key along with its
// stored version tag (0 for entries written unversioned).
func (s *Store) GetVersioned(key string) (value []byte, version uint64, ok bool) {
	now := s.now()
	sh := s.shard(key)
	sh.mu.RLock()
	e, exists := sh.m[key]
	if !exists || e.expired(now) {
		sh.mu.RUnlock()
		return nil, 0, false
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	sh.mu.RUnlock()
	return out, e.version, true
}

// GetVersionedAppend is GetVersioned appending into buf (reusing its
// capacity) instead of allocating — the server's hot read path pairs it
// with a recycled buffer. The returned slice is buf's reallocation when
// capacity grew; on a miss buf comes back unchanged for recycling.
func (s *Store) GetVersionedAppend(key string, buf []byte) (value []byte, version uint64, ok bool) {
	now := s.now()
	sh := s.shard(key)
	sh.mu.RLock()
	e, exists := sh.m[key]
	if !exists || e.expired(now) {
		sh.mu.RUnlock()
		return buf, 0, false
	}
	out := append(buf[:0], e.value...)
	sh.mu.RUnlock()
	return out, e.version, true
}

// PutVersioned stores a copy of value under key iff version is not
// older than the version currently held — the last-writer-wins rule
// that makes replicated write fan-out and read-repair idempotent and
// convergent. version 0 means "unversioned": always applied, stamped
// one past the stored version so a repair never clobbers it with an
// equal tag. It reports whether the write was applied and the version
// now stored (the winner's, either way).
func (s *Store) PutVersioned(key string, value []byte, ttl time.Duration, version uint64) (applied bool, stored uint64) {
	v := make([]byte, len(value))
	copy(v, value)
	now := s.now()
	var exp time.Time
	if ttl > 0 {
		exp = now.Add(ttl)
	}
	sh := s.shard(key)
	sh.mu.Lock()
	e, exists := sh.m[key]
	live := exists && !e.expired(now)
	switch {
	case version == 0:
		if live {
			version = e.version + 1
		} else {
			version = 1
		}
	case live && version < e.version:
		sh.mu.Unlock()
		return false, e.version // stale write loses
	}
	sh.m[key] = entry{value: v, version: version, expiresAt: exp}
	ack := s.notify(Mutation{Key: key, Value: v, Version: version, ExpiresAt: exp})
	sh.mu.Unlock()
	s.awaitDurable(ack)
	return true, version
}

// Merge atomically adds delta to the integer stored under key,
// treating an absent (or expired) key as zero. The stored
// representation is ASCII decimal — the same bytes a GET returns — so
// counters interoperate with plain puts. A live value that does not
// parse as a signed 64-bit integer, or a total that would overflow one,
// fails the op without mutating. The new total and version are
// returned; ttl (0 = keep alive forever) restamps the entry's expiry
// like a put would.
func (s *Store) Merge(key string, delta int64, ttl time.Duration) (total int64, version uint64, err error) {
	now := s.now()
	var exp time.Time
	if ttl > 0 {
		exp = now.Add(ttl)
	}
	sh := s.shard(key)
	sh.mu.Lock()
	e, exists := sh.m[key]
	live := exists && !e.expired(now)
	if live {
		total, err = strconv.ParseInt(string(e.value), 10, 64)
		if err != nil {
			sh.mu.Unlock()
			return 0, 0, fmt.Errorf("kv: merge %q: existing value is not an integer", key)
		}
		version = e.version + 1
	} else {
		version = 1
		if exists {
			version = e.version + 1 // don't reuse a dead entry's tag
		}
	}
	sum := total + delta
	if (delta > 0 && sum < total) || (delta < 0 && sum > total) {
		sh.mu.Unlock()
		return 0, 0, fmt.Errorf("kv: merge %q: %d%+d overflows int64", key, total, delta)
	}
	total = sum
	v := strconv.AppendInt(nil, total, 10)
	sh.m[key] = entry{value: v, version: version, expiresAt: exp}
	ack := s.notify(Mutation{Key: key, Value: v, Version: version, ExpiresAt: exp, Merge: true, Delta: delta})
	sh.mu.Unlock()
	s.awaitDurable(ack)
	return total, version, nil
}

// CompareAndSwap atomically replaces key's value with newValue iff the
// current live value equals oldValue. An empty/nil oldValue means
// "expect the key to be absent (or expired)". It reports whether the
// swap happened. A successful swap clears any TTL.
func (s *Store) CompareAndSwap(key string, oldValue, newValue []byte) bool {
	now := s.now()
	sh := s.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	live := ok && !e.expired(now)
	if len(oldValue) == 0 {
		if live && len(e.value) > 0 {
			sh.mu.Unlock()
			return false
		}
	} else {
		if !live || !bytesEqual(e.value, oldValue) {
			sh.mu.Unlock()
			return false
		}
	}
	v := make([]byte, len(newValue))
	copy(v, newValue)
	sh.m[key] = entry{value: v, version: e.version + 1}
	ack := s.notify(Mutation{Key: key, Value: v, Version: e.version + 1})
	sh.mu.Unlock()
	s.awaitDurable(ack)
	return true
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Delete removes key, reporting whether a live (non-expired) entry
// existed.
func (s *Store) Delete(key string) bool {
	now := s.now()
	sh := s.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	var ack func() error
	if ok {
		delete(sh.m, key)
		ack = s.notify(Mutation{Key: key, Delete: true})
	}
	sh.mu.Unlock()
	s.awaitDurable(ack)
	return ok && !e.expired(now)
}

// Len returns the number of live keys (expired-but-unswept keys are
// excluded).
func (s *Store) Len() int {
	now := s.now()
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			if !e.expired(now) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Sweep removes expired entries, returning how many were reclaimed.
func (s *Store) Sweep() int {
	now := s.now()
	reclaimed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.expired(now) {
				delete(sh.m, k)
				reclaimed++
			}
		}
		sh.mu.Unlock()
	}
	return reclaimed
}

// snapshotRecord is one persisted key-value pair (value base64-encoded
// by encoding/json's []byte handling). ExpiresAtUnixNano is 0 for keys
// without TTL.
type snapshotRecord struct {
	Key               string `json:"k"`
	Value             []byte `json:"v"`
	ExpiresAtUnixNano int64  `json:"exp,omitempty"`
	Version           uint64 `json:"ver,omitempty"`
}

// SaveTo writes a point-in-time snapshot as JSON lines. Expired entries
// are skipped. Shards are locked one at a time, so the snapshot is
// per-shard consistent.
func (s *Store) SaveTo(w io.Writer) error {
	now := s.now()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if e.expired(now) {
				continue
			}
			rec := snapshotRecord{Key: k, Value: e.value, Version: e.version}
			if !e.expiresAt.IsZero() {
				rec.ExpiresAtUnixNano = e.expiresAt.UnixNano()
			}
			if err := enc.Encode(rec); err != nil {
				sh.mu.RUnlock()
				return fmt.Errorf("kv: snapshot encode: %w", err)
			}
		}
		sh.mu.RUnlock()
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kv: snapshot flush: %w", err)
	}
	return nil
}

// ApplyIfNewer applies one streamed handoff record under the
// last-writer-wins rule: the record lands only if the key is absent,
// expired, or stored at a version <= the record's (<=, unlike
// PutVersioned's <, so re-pulling an interrupted stream is idempotent
// without redundant log writes for records already applied). Deletes
// and already-expired records are dropped — handoff streams only live
// state, and a concurrent client delete must not be resurrected by a
// version-0 record. Applied records flow through the mutation hook, so
// transferred keys are as durable as written ones.
func (s *Store) ApplyIfNewer(m Mutation) bool {
	if m.Delete {
		return false
	}
	now := s.now()
	if !m.ExpiresAt.IsZero() && !now.Before(m.ExpiresAt) {
		return false
	}
	v := make([]byte, len(m.Value))
	copy(v, m.Value)
	sh := s.shard(m.Key)
	sh.mu.Lock()
	e, exists := sh.m[m.Key]
	if exists && !e.expired(now) && m.Version <= e.version {
		sh.mu.Unlock()
		return false
	}
	sh.m[m.Key] = entry{value: v, version: m.Version, expiresAt: m.ExpiresAt}
	ack := s.notify(Mutation{Key: m.Key, Value: v, Version: m.Version, ExpiresAt: m.ExpiresAt})
	sh.mu.Unlock()
	s.awaitDurable(ack)
	return true
}

// ShardCount is the store's fixed shard count, exported for the
// rebalancer's shard-at-a-time handoff cursors. Shard membership is
// seeded per process, so a shard index is only meaningful to the store
// that produced it — handoff requests therefore address the
// *responder's* shards, never the requester's.
func (s *Store) ShardCount() int { return storeShards }

// HandoffChunk encodes up to limit live records of one shard — key >
// after, include(key) true — as snapshot JSON lines in ascending key
// order. It returns the encoded chunk, the cursor for the next pull,
// and whether more matching records remain. Values are copied into the
// chunk under the shard read-lock, so the stream is per-shard
// consistent without blocking writers for the whole transfer.
func (s *Store) HandoffChunk(shard int, after string, limit int, include func(string) bool) (data []byte, next string, more bool, count int) {
	if shard < 0 || shard >= storeShards || limit <= 0 {
		return nil, "", false, 0
	}
	now := s.now()
	sh := &s.shards[shard]
	sh.mu.RLock()
	keys := make([]string, 0, len(sh.m))
	for k, e := range sh.m {
		if k > after && !e.expired(now) && include(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > limit {
		keys, more = keys[:limit], true
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, k := range keys {
		e := sh.m[k]
		rec := snapshotRecord{Key: k, Value: e.value, Version: e.version}
		if !e.expiresAt.IsZero() {
			rec.ExpiresAtUnixNano = e.expiresAt.UnixNano()
		}
		if err := enc.Encode(rec); err != nil {
			sh.mu.RUnlock()
			return nil, "", false, 0
		}
	}
	sh.mu.RUnlock()
	if len(keys) > 0 {
		next = keys[len(keys)-1]
	}
	return buf.Bytes(), next, more, len(keys)
}

// LoadFrom replays a snapshot into the store (existing keys are
// overwritten; records already expired at load time are dropped).
func (s *Store) LoadFrom(r io.Reader) error {
	now := s.now()
	dec := json.NewDecoder(bufio.NewReader(r))
	n := 0
	for {
		var rec snapshotRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("kv: snapshot record %d: %w", n+1, err)
		}
		n++
		var exp time.Time
		if rec.ExpiresAtUnixNano != 0 {
			exp = time.Unix(0, rec.ExpiresAtUnixNano)
			if !now.Before(exp) {
				continue
			}
		}
		v := make([]byte, len(rec.Value))
		copy(v, rec.Value)
		sh := s.shard(rec.Key)
		sh.mu.Lock()
		sh.m[rec.Key] = entry{value: v, version: rec.Version, expiresAt: exp}
		sh.mu.Unlock()
	}
}

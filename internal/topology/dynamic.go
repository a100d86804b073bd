package topology

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/daskv/daskv/internal/sched"
)

// Dynamic is a ring whose membership changes at runtime: a gossip
// control plane adds and removes servers while the data plane keeps
// routing lookups. Readers obtain an immutable *Ring via Snapshot and
// route any number of lookups against it; writers build a fresh ring
// copy and publish it atomically (copy-on-write), so a lookup never
// observes a half-recomputed vnode table. This is the guard behind the
// LookupN vnode-dedup invariant under concurrent membership change: a
// snapshot's hashes/owners arrays are frozen at publish time, making
// every Lookup/LookupN against it exactly as correct as against a
// statically-built ring.
type Dynamic struct {
	mu     sync.Mutex // serializes membership writers
	vnodes int
	cur    atomic.Pointer[Ring]
}

// NewDynamic builds a dynamic ring over the initial servers with vnodes
// virtual nodes per server (DefaultVnodes if <= 0).
func NewDynamic(servers []sched.ServerID, vnodes int) (*Dynamic, error) {
	r, err := NewRing(servers, vnodes)
	if err != nil {
		return nil, err
	}
	d := &Dynamic{vnodes: r.vnodes}
	d.cur.Store(r)
	return d, nil
}

// Snapshot returns the current immutable ring. Callers may route any
// number of lookups against it; it is never mutated after publication.
func (d *Dynamic) Snapshot() *Ring {
	return d.cur.Load()
}

// Add joins a server, publishing a fresh ring snapshot. Adding a server
// already present is a no-op.
func (d *Dynamic) Add(s sched.ServerID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	if cur.members[s] {
		return
	}
	next := cur.Clone()
	_ = next.AddServer(s)
	d.cur.Store(next)
}

// Remove drops a server, publishing a fresh ring snapshot. Removing an
// absent server is a no-op; removing the last server is refused (the
// previous snapshot stays current) so lookups always have an owner.
func (d *Dynamic) Remove(s sched.ServerID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	if !cur.members[s] {
		return nil
	}
	if len(cur.members) == 1 {
		return errors.New("topology: cannot remove the last server")
	}
	next := cur.Clone()
	if err := next.RemoveServer(s); err != nil {
		return err
	}
	d.cur.Store(next)
	return nil
}

// SetMembers reconciles the ring to exactly the given server set in one
// publish, reporting whether the membership changed. An empty target set
// is refused, keeping the previous snapshot current.
func (d *Dynamic) SetMembers(servers []sched.ServerID) (changed bool, err error) {
	if len(servers) == 0 {
		return false, errors.New("topology: ring needs at least one server")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	want := make(map[sched.ServerID]bool, len(servers))
	for _, s := range servers {
		want[s] = true
	}
	if len(want) == len(cur.members) {
		same := true
		for s := range want {
			if !cur.members[s] {
				same = false
				break
			}
		}
		if same {
			return false, nil
		}
	}
	next, err := NewRing(servers, d.vnodes)
	if err != nil {
		return false, err
	}
	d.cur.Store(next)
	return true, nil
}

// Clone returns a deep copy of the ring that shares no mutable state
// with the receiver — the copy-on-write step behind Dynamic's updates.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		vnodes:  r.vnodes,
		hashes:  append([]uint64(nil), r.hashes...),
		owners:  append([]sched.ServerID(nil), r.owners...),
		members: make(map[sched.ServerID]bool, len(r.members)),
	}
	for s := range r.members {
		c.members[s] = true
	}
	return c
}

// Ownership returns the fraction of the hash space each member owns as
// primary — the load-balance view behind `kvctl ring`. Fractions sum to
// 1 (within float rounding).
func (r *Ring) Ownership() map[sched.ServerID]float64 {
	out := make(map[sched.ServerID]float64, len(r.members))
	n := len(r.hashes)
	if n == 0 {
		return out
	}
	const space = float64(1<<63) * 2 // 2^64 without overflow
	for i := 0; i < n; i++ {
		// The vnode at hashes[i] owns the arc (hashes[i-1], hashes[i]];
		// the first vnode additionally owns the wraparound arc.
		var arc uint64
		if i == 0 {
			arc = r.hashes[0] + (^r.hashes[n-1] + 1)
		} else {
			arc = r.hashes[i] - r.hashes[i-1]
		}
		out[r.owners[i]] += float64(arc) / space
	}
	return out
}

// MovedFraction estimates the fraction of a sampled keyspace whose
// primary owner differs between two rings — the bounded-key-movement
// check for join/leave rebalancing. Consistent hashing's promise is
// that adding one node to an N-node ring moves about 1/(N+1) of the
// keys, never a full reshuffle.
func MovedFraction(a, b *Ring, samples int) float64 {
	if samples <= 0 {
		samples = 4096
	}
	moved := 0
	for i := 0; i < samples; i++ {
		k := "moved-sample-" + strconv.Itoa(i)
		if a.Lookup(k) != b.Lookup(k) {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}

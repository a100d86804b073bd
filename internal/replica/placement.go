// Package replica is the replication layer: R-way replica placement on
// the consistent-hash ring, timeliness-aware replica selection driven by
// the DAS estimator's piggybacked feedback, and last-writer-wins version
// tags with a read-repair planner so replicas converge after partial
// write failures.
//
// The package extends the paper's single-copy model in the direction of
// Tars (Jiang et al.): the same expected-finish-time machinery DAS uses
// to order server queues also ranks replica holders at dispatch time,
// compensated for the requests this client already has in flight but
// whose load the feedback cannot reflect yet. Both the simulator and the
// live kv client route reads through a Selector, so the selection
// policies are compared under identical scoring code.
//
// The selector's live decisions are observable: `kvctl replicas KEY`
// prints the current Score ranking of a key's holders, and `kvctl
// trace` shows which replica each multiget op landed on (see
// docs/OBSERVABILITY.md).
package replica

import (
	"fmt"

	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/topology"
)

// Placement maps each key to its R distinct replica holders: the key's
// ring successor set. The primary (first holder) is the server the
// unreplicated system would pick, so R=1 degenerates to the seed's
// behavior exactly.
type Placement struct {
	ring   *topology.Ring
	factor int
}

// NewPlacement wraps ring with replication factor r (clamped to the
// cluster size by the ring itself; r must be at least 1).
func NewPlacement(ring *topology.Ring, r int) (*Placement, error) {
	if ring == nil {
		return nil, fmt.Errorf("replica: placement needs a ring")
	}
	if r < 1 {
		return nil, fmt.Errorf("replica: replication factor %d must be >= 1", r)
	}
	if r > ring.Size() {
		return nil, fmt.Errorf("replica: replication factor %d exceeds %d servers", r, ring.Size())
	}
	return &Placement{ring: ring, factor: r}, nil
}

// Factor returns the replication factor R.
func (p *Placement) Factor() int { return p.factor }

// For returns key's replica holders in ring (priority) order: the
// primary first, then the distinct clockwise successors.
func (p *Placement) For(key string) []sched.ServerID {
	return p.ring.LookupN(key, p.factor)
}

// AppendFor appends key's replica holders, in the same order as For, to
// dst — the allocation-free form a router with scratch space uses.
func (p *Placement) AppendFor(dst []sched.ServerID, key string) []sched.ServerID {
	return p.ring.AppendLookupN(dst, key, p.factor)
}

// Primary returns key's first-choice holder.
func (p *Placement) Primary(key string) sched.ServerID {
	return p.ring.Lookup(key)
}

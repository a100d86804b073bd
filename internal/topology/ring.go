// Package topology models how keys map onto servers: a consistent-hash
// ring with virtual nodes, plus replica enumeration. Both the simulator
// and the live store route multiget operations through a Ring, so hot
// partitions under skewed key popularity emerge naturally instead of
// being injected by hand.
package topology

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/daskv/daskv/internal/sched"
)

// DefaultVnodes is the per-server virtual-node count: enough to spread
// load within a few percent for cluster sizes in the evaluation.
const DefaultVnodes = 128

// Ring is a consistent-hash ring. It is immutable after construction
// apart from AddServer/RemoveServer, which callers must serialize; reads
// (Lookup) are safe to share once the membership is fixed.
type Ring struct {
	vnodes  int
	hashes  []uint64
	owners  []sched.ServerID
	members map[sched.ServerID]bool
}

// NewRing builds a ring over the given servers with vnodes virtual nodes
// per server (DefaultVnodes if <= 0).
func NewRing(servers []sched.ServerID, vnodes int) (*Ring, error) {
	if len(servers) == 0 {
		return nil, errors.New("topology: ring needs at least one server")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes, members: make(map[sched.ServerID]bool, len(servers))}
	for _, s := range servers {
		if r.members[s] {
			return nil, fmt.Errorf("topology: duplicate server %d", s)
		}
		r.members[s] = true
		r.addVnodes(s)
	}
	r.sortRing()
	return r, nil
}

func (r *Ring) addVnodes(s sched.ServerID) {
	for v := 0; v < r.vnodes; v++ {
		h := hashString("srv-" + strconv.Itoa(int(s)) + "-vn-" + strconv.Itoa(v))
		r.hashes = append(r.hashes, h)
		r.owners = append(r.owners, s)
	}
}

func (r *Ring) sortRing() {
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.hashes[idx[a]] < r.hashes[idx[b]] })
	hashes := make([]uint64, len(r.hashes))
	owners := make([]sched.ServerID, len(r.owners))
	for i, j := range idx {
		hashes[i] = r.hashes[j]
		owners[i] = r.owners[j]
	}
	r.hashes, r.owners = hashes, owners
}

// Size returns the number of member servers.
func (r *Ring) Size() int { return len(r.members) }

// Servers returns the member servers in ascending ID order.
func (r *Ring) Servers() []sched.ServerID {
	out := make([]sched.ServerID, 0, len(r.members))
	for s := range r.members {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lookup returns the server owning key.
func (r *Ring) Lookup(key string) sched.ServerID {
	i := r.search(hashString(key))
	return r.owners[i]
}

// LookupN returns up to n distinct servers for key, walking the ring
// clockwise: the primary followed by replica holders. Virtual nodes of
// a server already collected are skipped, so the successor set never
// contains the same physical server twice — the invariant replica
// placement depends on.
func (r *Ring) LookupN(key string, n int) []sched.ServerID {
	if n <= 0 {
		return nil
	}
	return r.AppendLookupN(make([]sched.ServerID, 0, min(n, len(r.members))), key, n)
}

// AppendLookupN appends LookupN(key, n) to dst and returns the extended
// slice — the allocation-free form for the per-operation routing path.
// Deduplication scans the appended run instead of allocating a set: n
// is the replication factor (single digits).
func (r *Ring) AppendLookupN(dst []sched.ServerID, key string, n int) []sched.ServerID {
	if n > len(r.members) {
		n = len(r.members)
	}
	base := len(dst)
	start := r.search(hashString(key))
walk:
	for i := 0; len(dst)-base < n && i < len(r.hashes); i++ {
		s := r.owners[(start+i)%len(r.hashes)]
		for _, have := range dst[base:] {
			if have == s {
				continue walk
			}
		}
		dst = append(dst, s)
	}
	return dst
}

func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// AddServer joins a server to the ring.
func (r *Ring) AddServer(s sched.ServerID) error {
	if r.members[s] {
		return fmt.Errorf("topology: server %d already in ring", s)
	}
	r.members[s] = true
	r.addVnodes(s)
	r.sortRing()
	return nil
}

// RemoveServer removes a server; the ring must not become empty.
func (r *Ring) RemoveServer(s sched.ServerID) error {
	if !r.members[s] {
		return fmt.Errorf("topology: server %d not in ring", s)
	}
	if len(r.members) == 1 {
		return errors.New("topology: cannot remove the last server")
	}
	delete(r.members, s)
	hashes := r.hashes[:0]
	owners := r.owners[:0]
	for i, o := range r.owners {
		if o != s {
			hashes = append(hashes, r.hashes[i])
			owners = append(owners, o)
		}
	}
	r.hashes, r.owners = hashes, owners
	return nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	// FNV-1a avalanches poorly on short, similar strings (our vnode
	// labels), which skews arc lengths badly; finish with the
	// MurmurHash3 fmix64 finalizer to spread the bits.
	return fmix64(h.Sum64())
}

func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

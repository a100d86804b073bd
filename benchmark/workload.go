package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// spec is one named workload: a cluster shape, a keyspace, and a
// request mix. The four specs below are the benchmark; they are never
// selected by anything the store can observe.
type spec struct {
	name string
	why  string

	servers int
	workers int
	// walSync enables a write-ahead log per server ("" = none).
	walSync string
	// costPerByte makes a server sleep this long per value byte served
	// (0 = Cost nil: operations cost only their real work).
	costPerByte time.Duration

	keys int
	// zipf is the key-popularity exponent (0 = uniform).
	zipf float64
	// smallBytes is every value's size, except that every bigEvery-th
	// popularity rank holds bigBytes. The sizes are part of the workload,
	// not of the seed: were the seed to decide whether the hottest keys
	// are the big ones, each seed would offer a different load.
	smallBytes, bigBytes, bigEvery int

	// fanLo..fanHi is the read fan-out (1..1 = single-key Get).
	fanLo, fanHi int
	// putShare is the fraction of requests that are single-key Puts.
	putShare float64
	// rate > 0 makes the workload open-loop Poisson at this request
	// rate; 0 makes it closed-loop with one request in flight per caller.
	rate float64
}

func workloads() []spec {
	return []spec{
		{
			name:    "get-point",
			why:     "single-key Get of 64 B values: per-request fixed cost (frame, syscalls, hand-offs, locks) is nearly all the work",
			servers: 2, workers: 2, keys: 100_000, smallBytes: 64,
			fanLo: 1, fanHi: 1,
		},
		{
			name:    "mget-wide",
			why:     "MGet fan-out 16 over 4 servers: batch frames, tagging, PushBatch, flush coalescing and the straggler max do the work",
			servers: 4, workers: 2, keys: 100_000, zipf: 0.6, smallBytes: 64,
			fanLo: 16, fanHi: 16,
		},
		{
			name:    "mixed-durable",
			why:     "half MGet-4, half Put of 256 B under a batch:2ms WAL: a read gain bought with a write or durability cost shows here",
			servers: 2, workers: 2, walSync: "batch:2ms", keys: 100_000, zipf: 0.99, smallBytes: 256,
			fanLo: 4, fanHi: 4, putShare: 0.5,
		},
		{
			name:    "sched-heavytail",
			why:     "open-loop Poisson 1000 req/s over 8 servers, 1 ms / 8 ms simulated service: RCT is queue wait plus the slowest sibling, the paper's regime",
			servers: 8, workers: 2, costPerByte: time.Microsecond, keys: 4_000, zipf: 0.6,
			smallBytes: 1 << 10, bigBytes: 8 << 10, bigEvery: 10,
			fanLo: 2, fanHi: 8, rate: 1000,
		},
	}
}

func workloadByName(name string) (spec, bool) {
	for _, s := range workloads() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) closedLoop() bool { return s.rate == 0 }

// keyspace is the data of a workload: key names and value sizes. Every value's content is a function of (index, version),
// so any read can be checked without remembering what was written.
type keyspace struct {
	names []string
	sizes []int32
}

const valueHeader = 8 // u32 key index + u32 version

func newKeyspace(s spec) *keyspace {
	ks := &keyspace{names: make([]string, s.keys), sizes: make([]int32, s.keys)}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("k%07d", i)
		ks.sizes[i] = int32(s.smallBytes)
		if s.bigEvery > 0 && i%s.bigEvery == s.bigEvery-1 {
			ks.sizes[i] = int32(s.bigBytes)
		}
	}
	return ks
}

// index recovers the key index from a name newKeyspace made (-1 if it
// is not one): the client's SizeHint gets only the name.
func (ks *keyspace) index(name string) int {
	if len(name) != 8 || name[0] != 'k' {
		return -1
	}
	n := 0
	for i := 1; i < 8; i++ {
		d := name[i] - '0'
		if d > 9 {
			return -1
		}
		n = n*10 + int(d)
	}
	if n >= len(ks.names) {
		return -1
	}
	return n
}

// fill writes the content of key idx at version into buf[:size].
func (ks *keyspace) fill(buf []byte, idx int, version uint32) []byte {
	n := int(ks.sizes[idx])
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.BigEndian.PutUint32(buf[0:4], uint32(idx))
	binary.BigEndian.PutUint32(buf[4:8], version)
	seedByte := byte(idx*131 + int(version)*17)
	for j := valueHeader; j < n; j++ {
		buf[j] = seedByte + byte(j)
	}
	return buf
}

// check verifies that v is the content of key idx at some version and
// returns that version.
func (ks *keyspace) check(v []byte, idx int) (version uint32, ok bool) {
	if len(v) != int(ks.sizes[idx]) || binary.BigEndian.Uint32(v[0:4]) != uint32(idx) {
		return 0, false
	}
	version = binary.BigEndian.Uint32(v[4:8])
	seedByte := byte(idx*131 + int(version)*17)
	for j := valueHeader; j < len(v); j++ {
		if v[j] != seedByte+byte(j) {
			return version, false
		}
	}
	return version, true
}

// zipf draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^theta for any
// theta in [0, 1) — the range math/rand's Zipf refuses — by the
// closed-form inversion of Gray et al. (SIGMOD '94). theta 0 is uniform.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.half = math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	if z.theta == 0 {
		return rng.IntN(z.n)
	}
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// request is one generated client call: a Put of keys[0] when put is
// set, else a Get (one key) or MGet of keys.
type request struct {
	put  bool
	keys []int32
}

// generator is one caller's deterministic request stream. Streams of
// different callers are independent PCG sequences of the same seed.
// Writers never share a key: caller c of n writes only indices ≡ c
// (mod n), so each key's puts are ordered by one caller's acks and
// "the last acknowledged version" is well defined.
type generator struct {
	s       spec
	rng     *rand.Rand
	z       *zipf
	caller  int
	callers int
}

func newGenerator(s spec, z *zipf, seed uint64, caller, callers int) *generator {
	return &generator{
		s: s, z: z, caller: caller, callers: callers,
		rng: rand.New(rand.NewPCG(seed, 0x72657173+uint64(caller))), // "reqs"+caller
	}
}

// next overwrites r with the stream's next request, reusing r.keys.
func (g *generator) next(r *request) {
	r.keys = r.keys[:0]
	if g.s.putShare > 0 && g.rng.Float64() < g.s.putShare {
		r.put = true
		idx := g.z.draw(g.rng)
		idx = idx - idx%g.callers + g.caller
		if idx >= g.s.keys {
			idx -= g.callers
		}
		r.keys = append(r.keys, int32(idx))
		return
	}
	r.put = false
	fan := g.s.fanLo
	if g.s.fanHi > g.s.fanLo {
		fan += g.rng.IntN(g.s.fanHi - g.s.fanLo + 1)
	}
	for len(r.keys) < fan {
		idx := int32(g.z.draw(g.rng))
		dup := false
		for _, k := range r.keys {
			if k == idx {
				dup = true
				break
			}
		}
		if !dup {
			r.keys = append(r.keys, idx)
		}
	}
}

// schedule is an open-loop plan: request i is due at[i] after the run
// starts, whatever the store is doing.
type schedule struct {
	at   []time.Duration
	reqs []request
}

// newSchedule draws Poisson arrivals at the spec's rate until total.
func newSchedule(s spec, z *zipf, seed uint64, total time.Duration) *schedule {
	g := newGenerator(s, z, seed, 0, 1)
	arr := rand.New(rand.NewPCG(seed, 0x61727276)) // "arrv"
	sc := &schedule{}
	var t time.Duration
	for {
		t += time.Duration(arr.ExpFloat64() / s.rate * float64(time.Second))
		if t >= total {
			return sc
		}
		var r request
		g.next(&r)
		sc.at = append(sc.at, t)
		sc.reqs = append(sc.reqs, r)
	}
}

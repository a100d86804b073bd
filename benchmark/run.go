package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/wire"
)

// phase is one stretch of a run. Requests of a recorded phase count;
// the others warm the system up.
type phase struct {
	dur    time.Duration
	traced bool // drive the tracing client and sample its traces
	record bool
}

// tally is what one phase measured.
type tally struct {
	reads, puts *samples
	late        *samples // open loop: send time − intended time
	attempted   int64
	failed      int64
	inWindow    int64 // requests that succeeded and returned before the phase ended
	userBytes   int64 // key+value bytes of acknowledged puts
	window      time.Duration
	before      []wire.ServerStats
	after       []wire.ServerStats
}

func newTally(capacity int) *tally {
	return &tally{reads: newSamples(capacity), puts: newSamples(capacity / 2), late: newSamples(0)}
}

func (t *tally) merge(o *tally) {
	t.reads.merge(o.reads)
	t.puts.merge(o.puts)
	t.late.merge(o.late)
	t.attempted += o.attempted
	t.failed += o.failed
	t.inWindow += o.inWindow
	t.userBytes += o.userBytes
}

// traceDepth is the tracing client's ring size and tracePoll how often
// the recorder drains it: at most depth/poll traces per second are
// sampled, the newest of each interval.
const (
	traceDepth = 1024
	tracePoll  = 250 * time.Millisecond
)

// runner drives one booted cluster through a list of phases.
type runner struct {
	c       *cluster
	seed    uint64
	callers int
	z       *zipf
	traced  *kv.Client // nil unless some phase is traced
	rec     *recorder

	// issued[k] is the newest version a Put of key k was sent with and
	// acked[k] the newest acknowledged; a read of k must return a
	// version between the acked value before it and the issued value
	// after it.
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newRunner(c *cluster, seed uint64) *runner {
	return &runner{
		c: c, seed: seed,
		callers: min(runtime.NumCPU(), 4),
		z:       newZipf(c.s.keys, c.s.zipf),
		issued:  make([]atomic.Uint32, c.s.keys),
		acked:   make([]atomic.Uint32, c.s.keys),
	}
}

// call issues one request and checks every value it returns.
func (r *runner) call(cl *kv.Client, req *request, names []string, lows []uint32, buf *[]byte) (ok bool, userBytes int) {
	ctx := context.Background()
	ks := r.c.ks
	if req.put {
		idx := int(req.keys[0])
		ver := r.issued[idx].Load() + 1
		r.issued[idx].Store(ver)
		*buf = ks.fill(*buf, idx, ver)
		if err := cl.Put(ctx, ks.names[idx], *buf); err != nil {
			return false, 0
		}
		r.acked[idx].Store(ver)
		return true, len(ks.names[idx]) + len(*buf)
	}
	for i, k := range req.keys {
		lows[i] = r.acked[k].Load()
	}
	if len(req.keys) == 1 {
		idx := int(req.keys[0])
		v, err := cl.Get(ctx, ks.names[idx])
		return err == nil && r.valid(v, idx, lows[0]), 0
	}
	names = names[:0]
	for _, k := range req.keys {
		names = append(names, ks.names[k])
	}
	res, err := cl.MGet(ctx, names)
	if err != nil || len(res) != len(names) {
		return false, 0
	}
	for i, k := range req.keys {
		if !r.valid(res[names[i]], int(k), lows[i]) {
			return false, 0
		}
	}
	return true, 0
}

func (r *runner) valid(v []byte, idx int, low uint32) bool {
	got, ok := r.c.ks.check(v, idx)
	return ok && got >= low && got <= r.issued[idx].Load()
}

// run executes the phases back to back and returns one tally per phase.
func (r *runner) run(phases []phase) ([]*tally, error) {
	for _, p := range phases {
		if p.traced && r.traced == nil {
			cl, err := r.c.newClient(traceDepth, r.seed+1)
			if err != nil {
				return nil, err
			}
			r.traced = cl
			defer func() { _ = cl.Close(); r.traced = nil }()
		}
	}
	ends := make([]time.Duration, len(phases))
	var total time.Duration
	for i, p := range phases {
		total += p.dur
		ends[i] = total
	}
	tallies := make([]*tally, len(phases))
	for i := range tallies {
		tallies[i] = newTally(0)
		tallies[i].window = phases[i].dur
	}
	start := time.Now()
	r.rec = newRecorder(start)

	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		r.monitor(phases, ends, tallies, start)
	}()
	if r.c.s.closedLoop() {
		r.closedLoop(phases, ends, tallies, start)
	} else {
		r.openLoop(phases, ends, tallies, start)
	}
	mon.Wait()
	return tallies, nil
}

func (r *runner) clientFor(p phase) *kv.Client {
	if p.traced {
		return r.traced
	}
	return r.c.client
}

// monitor snapshots the servers' counters at the edges of every
// recorded phase and, in a traced phase, drains the client's trace ring.
func (r *runner) monitor(phases []phase, ends []time.Duration, tallies []*tally, start time.Time) {
	var from time.Duration
	for i, p := range phases {
		to := ends[i]
		if p.record {
			time.Sleep(time.Until(start.Add(from)))
			tallies[i].before = r.c.stats()
			if p.traced {
				lo, hi := start.Add(from), start.Add(to)
				for time.Until(hi) > tracePoll {
					time.Sleep(tracePoll)
					r.rec.collect(r.traced, lo, hi)
				}
				time.Sleep(time.Until(hi))
				r.rec.collect(r.traced, lo, hi)
			} else {
				time.Sleep(time.Until(start.Add(to)))
			}
			tallies[i].after = r.c.stats()
		}
		from = to
	}
}

// closedLoop runs the callers: each sends its next request when the
// previous one returns — an application server blocking on its
// multiget — so throughput is capacity at a fixed number of callers.
func (r *runner) closedLoop(phases []phase, ends []time.Duration, tallies []*tally, start time.Time) {
	perCaller := make([][]*tally, r.callers)
	var wg sync.WaitGroup
	for c := 0; c < r.callers; c++ {
		mine := make([]*tally, len(phases))
		for i, p := range phases {
			capacity := 0
			if p.record { // room for 100k req/s so appends rarely grow mid-run
				capacity = int(p.dur.Seconds()*100_000) / r.callers
			}
			mine[i] = newTally(capacity)
		}
		perCaller[c] = mine
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newGenerator(r.c.s, r.z, r.seed, c, r.callers)
			var req request
			names := make([]string, 0, r.c.s.fanHi)
			lows := make([]uint32, r.c.s.fanHi)
			var buf []byte
			p := 0
			for {
				el := time.Since(start)
				for p < len(phases) && el >= ends[p] {
					p++
				}
				if p == len(phases) {
					return
				}
				gen.next(&req)
				t0 := time.Now()
				ok, ub := r.call(r.clientFor(phases[p]), &req, names, lows, &buf)
				t1 := time.Now()
				if !phases[p].record || t1.Sub(start) > ends[p] {
					continue
				}
				t := mine[p]
				t.attempted++
				if !ok {
					t.failed++
					continue
				}
				t.inWindow++
				if req.put {
					t.puts.add(t1.Sub(t0))
					t.userBytes += int64(ub)
				} else {
					t.reads.add(t1.Sub(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, mine := range perCaller {
		for i := range phases {
			tallies[i].merge(mine[i])
		}
	}
}

// openLoop sends on the Poisson schedule whatever the store is doing:
// independent users. Latency is charged from the intended send time, so
// a stall is paid for by every request it delays; the generator only
// ever sleeps, and how late it ran is reported.
func (r *runner) openLoop(phases []phase, ends []time.Duration, tallies []*tally, start time.Time) {
	sc := newSchedule(r.c.s, r.z, r.seed, ends[len(ends)-1])
	var mu sync.Mutex
	var wg sync.WaitGroup
	p := 0
	for i := range sc.at {
		for sc.at[i] >= ends[p] {
			p++
		}
		due := start.Add(sc.at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(req *request, p int) {
			defer wg.Done()
			sent := time.Now()
			names := make([]string, 0, len(req.keys))
			lows := make([]uint32, len(req.keys))
			var buf []byte
			ok, ub := r.call(r.clientFor(phases[p]), req, names, lows, &buf)
			done := time.Now()
			if !phases[p].record {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			t := tallies[p]
			t.attempted++
			t.late.add(sent.Sub(due))
			if !ok {
				t.failed++
				return
			}
			if done.Sub(start) <= ends[p] {
				t.inWindow++
			}
			if req.put {
				t.puts.add(done.Sub(due))
				t.userBytes += int64(ub)
			} else {
				t.reads.add(done.Sub(due))
			}
		}(&sc.reqs[i], p)
	}
	wg.Wait()
}

// achieved is the share of the phase's scheduled requests that were
// answered before the phase ended: below one when a backlog is growing
// or the generator fell behind its schedule.
func (t *tally) achieved() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.inWindow) / float64(t.attempted)
}

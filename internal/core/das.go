package core

import (
	"container/heap"
	"fmt"
	"time"

	"github.com/daskv/daskv/internal/sched"
)

// Options are the DAS policy knobs. The evaluation's ablation (E10)
// switches the individual terms off through these.
type Options struct {
	// Alpha is the continuous aging weight in [0, 1]: how strongly
	// waiting time pulls an operation forward relative to newcomers
	// (prio decreases as Alpha*wait). 0 disables continuous aging; 1
	// degenerates toward FCFS. DAS's primary starvation control is
	// MaxDelay; Alpha is kept for the ablation study.
	Alpha float64
	// Beta is the LRPT-last slack-demotion weight (>= 0): how strongly
	// an operation whose request bottleneck lies elsewhere is deferred.
	// 0 disables the LRPT-last term, leaving pure request-level SRPT.
	Beta float64
	// MaxDelay bounds starvation: an operation that has waited longer
	// than MaxDelay is served next regardless of priority (oldest
	// first). 0 (the default) disables the bound. It trades mean for
	// tail: useful when an SLO caps worst-case latency, but it must be
	// sized well above typical waits — a bound that binds under normal
	// load collapses DAS to FCFS precisely where scheduling matters
	// (measured in the E10 ablation).
	MaxDelay time.Duration
	// SlackThreshold is the LRPT-last firing threshold as a multiple
	// of the request's remaining time: the demotion applies only when
	// Slack > SlackThreshold * RemainingTime. Higher values demote
	// only ops whose requests are very confidently stuck elsewhere,
	// insulating the SRPT order from slack-estimate noise (default 1).
	SlackThreshold float64
	// AgingBound caps any queued operation's wait *relative to its own
	// request's remaining processing time*: an op that has waited
	// longer than its tagged slack plus AgingBound × RemainingTime is
	// served next (earliest deadline first), classified ClassPromoted.
	// Slack is deferral the request absorbs for free while bottlenecked
	// on another server, so the starvation clock starts once that
	// headroom is spent; for a bottleneck op (slack 0) the cap is
	// exactly AgingBound × RemainingTime. 0 disables the bound.
	//
	// This is the anti-starvation control the live tail needs where
	// MaxDelay cannot help: under sustained load of short requests,
	// SRPT order and LRPT-last demotion both defer large requests
	// without limit, and an absolute cutoff either never fires (sized
	// for the big requests) or collapses DAS to FCFS (sized for the
	// small ones). A relative bound scales the tolerance with request
	// size — a 2ms request is rescued after AgingBound×2ms, a 20ms
	// request after AgingBound×20ms — so short requests keep their
	// SRPT advantage while no request's wait can exceed AgingBound
	// times its service requirement.
	AgingBound float64
}

// DefaultOptions returns the parameters used throughout the simulator
// evaluation: slack demotion at Beta=0.1, no continuous aging, no
// delay or aging bound.
func DefaultOptions() Options {
	return Options{Alpha: 0, Beta: 0.1, MaxDelay: 0}
}

// LiveOptions returns the parameters the live data plane runs with:
// DefaultOptions plus the relative aging bound. The open-loop
// simulator rarely starves (arrivals pause when the system saturates
// only probabilistically), but the live store's closed-loop saturation
// starves demoted and large-RPT operations without a bound — the
// E21→E22 tail fix (see EXPERIMENTS.md).
//
// AgingBound 2 was tuned on the E21 live setup: under closed-loop
// saturation queue waits exceed every request's processing time, so
// the bound's EDF order (enqueue + slack + 2x RPT) governs the drain.
// The slack term is what pulls the tail *below* FCFS rather than
// merely matching it — ops whose request is bottlenecked on a deeper
// queue elsewhere spend that headroom waiting while bottleneck ops
// pass them, tightening request completions at no one's expense — and
// the 2x RPT term still serves shorter requests first among
// contemporaries. Larger bounds let the tail regress toward unbounded
// SRPT starvation (measured: p99 grows monotonically with the bound
// past ~4); at light load waits never reach the bound and pure DAS
// order prevails.
func LiveOptions() Options {
	o := DefaultOptions()
	o.AgingBound = 2
	return o
}

func (o Options) validate() error {
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("das: alpha %v outside [0,1]", o.Alpha)
	}
	if o.Beta < 0 {
		return fmt.Errorf("das: beta %v must be non-negative", o.Beta)
	}
	if o.MaxDelay < 0 {
		return fmt.Errorf("das: maxDelay %v must be non-negative", o.MaxDelay)
	}
	if o.SlackThreshold < 0 {
		return fmt.Errorf("das: slackThreshold %v must be non-negative", o.SlackThreshold)
	}
	if o.AgingBound < 0 {
		return fmt.Errorf("das: agingBound %v must be non-negative", o.AgingBound)
	}
	return nil
}

// DAS is the server-side Distributed Adaptive Scheduler queue. The
// priority of operation o at time t combines (lower = served first):
//
//	prio(o,t) = RemainingTime(o)        // SRPT-first across requests
//	          + Beta  * Slack̄(o)        // LRPT-last within a request
//	          - Alpha * wait(o,t)       // optional continuous aging
//
// with two hard starvation bounds layered on top: any operation waiting
// beyond the absolute MaxDelay is served next (oldest first), and — when
// AgingBound is on — any operation whose wait exceeds its tagged slack
// plus AgingBound times its request's remaining processing time is
// served next (earliest promotion deadline first).
//
// RemainingTime is the request's speed-scaled bottleneck processing time
// (see Tag) and Slack̄ is the wait-aware deferral headroom capped at
// RemainingTime.
//
// The continuous-aging term shifts every queued operation by the same
// −Alpha·t at any comparison instant, so the *ordering* is fixed by the
// static key
//
//	key(o) = RemainingTime + Beta·Slack̄ + Alpha·Enqueued
//
// which lets DAS run on an ordinary binary heap with O(log n) operations
// and no periodic re-sorting — the property that makes it deployable on
// a busy server hot path. The MaxDelay check costs O(1) per Pop (FIFO
// head inspection) plus one O(log n) removal when it fires; the
// AgingBound check is one deadline-heap peek plus one removal when it
// fires.
type DAS struct {
	opts Options
	ops  []*sched.Op
	keys []float64
	seqs []uint64
	seq  uint64

	// live maps each heap-resident op to its push sequence, allocated
	// only when a starvation bound keeps lazy aging/FIFO entries. It
	// exists so holds can validate an entry without dereferencing its
	// op pointer: a stale entry's op may already be recycled by the
	// caller's op pool and concurrently reinitialized by its next
	// owner — possibly another server's queue, outside this queue's
	// lock — so touching the pointed-to memory would be a data race.
	// Map lookup hashes the pointer value itself, never the pointee.
	live map[*sched.Op]uint64

	fifo     []agingEntry
	fifoHead int

	// aging orders queued ops by their promotion deadline
	// (Enqueued + Slack + AgingBound × RPT) when the relative bound
	// is on.
	// Entries of ops already served through the priority heap are
	// deleted lazily when they surface. Entries carry the op's push
	// sequence number so a recycled op struct (the live server pools
	// them) is never mistaken for the queued incarnation — see holds.
	aging agingHeap

	backlog time.Duration
	stats   sched.DecisionStats
}

var _ sched.Policy = (*DAS)(nil)

// New returns a DAS queue with the given options.
func New(opts Options) (*DAS, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	q := &DAS{opts: opts}
	if opts.MaxDelay > 0 || opts.AgingBound > 0 {
		q.live = make(map[*sched.Op]uint64)
	}
	return q, nil
}

// Factory builds per-server DAS queues with the given options; invalid
// options fall back to defaults so the factory stays total (the CLI
// validates separately).
func Factory(opts Options) sched.Factory {
	if opts.validate() != nil {
		opts = DefaultOptions()
	}
	return func(uint64) sched.Policy {
		q, _ := New(opts) // options validated above
		return q
	}
}

// Name implements sched.Policy.
func (q *DAS) Name() string { return "DAS" }

// Key implements sched.Keyer, exposing the static priority key so the
// simulator's preemptive mode can compare queued against in-service
// operations.
func (q *DAS) Key(op *sched.Op) float64 { return q.key(op) }

var _ sched.Keyer = (*DAS)(nil)

// key computes the static priority key (see the type comment). The
// LRPT-last demotion is deliberately both thresholded and capped:
//
//   - thresholded — it fires only when the op's slack exceeds its
//     request's whole remaining processing time, i.e. when the request
//     is confidently stuck behind a long queue elsewhere. Small slack
//     values inherit the noise of queue-wait feedback, and letting them
//     perturb the key subdivides SBF's priority classes and destroys
//     the FIFO progress guarantee within a class (measured: a 4.7x p99
//     regression on bimodal demands);
//   - capped at Beta x RemainingTime — an uncapped penalty turns one
//     stale estimate into the request's permanent straggler.
func (q *DAS) key(op *sched.Op) float64 {
	k := float64(op.Tags.RemainingTime) + q.opts.Alpha*float64(op.Enqueued)
	if fire, _ := q.demote(op); fire {
		k += q.opts.Beta * float64(op.Tags.RemainingTime)
	}
	return k
}

// demote evaluates the LRPT-last firing rule for op: fire is whether
// the slack demotion applies, near is whether the op's slack fell
// within ±10% of the firing boundary — the band where queue-wait
// estimate noise could have flipped the decision (counted in
// DecisionStats.NearBoundary so the signal's margin is observable).
func (q *DAS) demote(op *sched.Op) (fire, near bool) {
	threshold := q.opts.SlackThreshold
	if threshold == 0 {
		threshold = 1
	}
	slack := float64(op.Tags.Slack())
	edge := threshold * float64(op.Tags.RemainingTime)
	fire = slack > edge
	near = edge > 0 && slack > 0.9*edge && slack < 1.1*edge
	return fire, near
}

// Push implements sched.Policy.
func (q *DAS) Push(op *sched.Op, now time.Duration) {
	fire, near := q.demote(op)
	q.admit(op, now, fire, near)
}

// PushBatch implements sched.BatchPolicy: one request's per-server
// batch is admitted under a single LRPT-last decision, evaluated once
// on the frame's (coherent) tags. All ops share one priority key and
// consecutive sequence numbers, so the batch stays contiguous in
// service order instead of being shuffled through the queue by per-op
// estimate noise. Callers guarantee tag coherence (the live server
// checks the wire frame before choosing this path).
func (q *DAS) PushBatch(ops []*sched.Op, now time.Duration) {
	if len(ops) == 0 {
		return
	}
	fire, near := q.demote(ops[0])
	for _, op := range ops {
		q.admit(op, now, fire, near)
	}
}

var _ sched.BatchPolicy = (*DAS)(nil)

// admit enqueues one op under an already-made demotion decision.
func (q *DAS) admit(op *sched.Op, now time.Duration, fire, near bool) {
	op.Enqueued = now
	q.backlog += op.Demand
	q.stats.Pushed++
	if near {
		q.stats.NearBoundary++
	}
	// Beta 0 keeps the classification honest in the ablation: the
	// slack term is disabled, so nothing is really demoted.
	if fire && q.opts.Beta > 0 {
		q.stats.LRPTDemoted++
		op.Class = sched.ClassLRPTLast
	} else {
		q.stats.SRPTFirst++
		op.Class = sched.ClassSRPTFirst
	}
	heap.Push((*dasHeap)(q), op)
	seq := q.seqs[dasHeapIndex(op)]
	if q.live != nil {
		q.live[op] = seq
	}
	if q.opts.MaxDelay > 0 {
		q.fifo = append(q.fifo, agingEntry{op: op, seq: seq})
	}
	if q.opts.AgingBound > 0 {
		q.aging.push(agingEntry{op: op, seq: seq, deadline: now + q.agingAllowance(op)})
	}
}

// holds reports whether the op of an aging/FIFO entry is still this
// queue's live incarnation: heap-resident here, at the recorded push
// sequence. A pointer that fails this check was already served and
// possibly recycled by the caller's op pool (and may even sit in
// another server's queue by now, being reinitialized concurrently) —
// which is exactly why the check consults the queue-side live map
// instead of dereferencing e.op; see the live field.
func (q *DAS) holds(e agingEntry) bool {
	seq, ok := q.live[e.op]
	return ok && seq == e.seq
}

// agingAllowance is how long an op may wait before the relative bound
// promotes it: the op's tagged slack — deferral the request absorbs
// for free while bottlenecked on another server — plus AgingBound
// times its request's remaining processing time, floored at the op's
// own demand so untagged traffic (zero RemainingTime) still ages at a
// sane rate. Spending the slack first is what lets DAS beat FCFS's
// tail under saturation instead of merely matching it: the promotion
// deadlines order bottleneck ops ahead of contemporaries that can
// afford to wait, so request completions tighten without any op
// overstaying its request's horizon.
func (q *DAS) agingAllowance(op *sched.Op) time.Duration {
	rpt := op.Tags.RemainingTime
	if rpt < op.Demand {
		rpt = op.Demand
	}
	return op.Tags.Slack() + time.Duration(q.opts.AgingBound*float64(rpt))
}

// Pop implements sched.Policy.
func (q *DAS) Pop(now time.Duration) *sched.Op {
	if len(q.ops) == 0 {
		if len(q.aging) > 0 {
			// Nothing queued: every remaining aging entry is stale.
			for i := range q.aging {
				q.aging[i] = agingEntry{}
			}
			q.aging = q.aging[:0]
		}
		return nil
	}
	if old := q.oldest(); old != nil && now-old.Enqueued > q.opts.MaxDelay {
		q.fifoHead++
		q.promote(old)
		return old
	}
	if op := q.agingExpired(now); op != nil {
		q.promote(op)
		return op
	}
	op, ok := heap.Pop((*dasHeap)(q)).(*sched.Op)
	if !ok {
		return nil
	}
	delete(q.live, op)
	q.backlog -= op.Demand
	return op
}

// promote removes op from the priority heap and serves it out of key
// order under a starvation bound.
func (q *DAS) promote(op *sched.Op) {
	heap.Remove((*dasHeap)(q), dasHeapIndex(op))
	delete(q.live, op)
	q.backlog -= op.Demand
	q.stats.Promotions++
	op.Class = sched.ClassPromoted
}

// agingExpired returns the queued op with the earliest expired
// promotion deadline, or nil when the relative bound is off or nothing
// has aged out. Entries whose ops were already served through the
// priority heap are dropped lazily here.
func (q *DAS) agingExpired(now time.Duration) *sched.Op {
	if q.opts.AgingBound <= 0 {
		return nil
	}
	for len(q.aging) > 0 {
		top := q.aging[0]
		if !q.holds(top) {
			q.aging.pop() // served long ago; drop the stale entry
			continue
		}
		if top.deadline >= now {
			return nil // the earliest deadline has not expired yet
		}
		q.aging.pop()
		return top.op
	}
	return nil
}

// oldest returns the longest-waiting queued op, or nil when MaxDelay is
// disabled or the FIFO is drained.
func (q *DAS) oldest() *sched.Op {
	if q.opts.MaxDelay <= 0 {
		return nil
	}
	for q.fifoHead < len(q.fifo) {
		e := q.fifo[q.fifoHead]
		if q.holds(e) {
			return e.op
		}
		// Already served through the heap path; drop and compact.
		q.fifo[q.fifoHead] = agingEntry{}
		q.fifoHead++
		if q.fifoHead > 64 && q.fifoHead*2 >= len(q.fifo) {
			n := copy(q.fifo, q.fifo[q.fifoHead:])
			for i := n; i < len(q.fifo); i++ {
				q.fifo[i] = agingEntry{}
			}
			q.fifo = q.fifo[:n]
			q.fifoHead = 0
		}
	}
	return nil
}

// Decisions implements sched.DecisionReporter: the queue's ordering
// decision counters since construction. The caller serializes it with
// Push/Pop like any Policy access.
func (q *DAS) Decisions() sched.DecisionStats { return q.stats }

var _ sched.DecisionReporter = (*DAS)(nil)

// Len implements sched.Policy.
func (q *DAS) Len() int { return len(q.ops) }

// BacklogDemand implements sched.Policy.
func (q *DAS) BacklogDemand() time.Duration { return q.backlog }

func dasHeapIndex(op *sched.Op) int       { return op.HeapIndex() }
func setDASHeapIndex(op *sched.Op, i int) { op.SetHeapIndex(i) }

// dasHeap adapts DAS to heap.Interface with keys cached at push. The
// op's SetHeapIndex/HeapIndex hooks keep positions current so MaxDelay
// promotion can remove an arbitrary element.
type dasHeap DAS

var _ heap.Interface = (*dasHeap)(nil)

func (h *dasHeap) Len() int { return len(h.ops) }

func (h *dasHeap) Less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	return h.seqs[i] < h.seqs[j]
}

func (h *dasHeap) Swap(i, j int) {
	h.ops[i], h.ops[j] = h.ops[j], h.ops[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
	setDASHeapIndex(h.ops[i], i)
	setDASHeapIndex(h.ops[j], j)
}

func (h *dasHeap) Push(x any) {
	op, ok := x.(*sched.Op)
	if !ok {
		return
	}
	setDASHeapIndex(op, len(h.ops))
	h.ops = append(h.ops, op)
	h.keys = append(h.keys, (*DAS)(h).key(op))
	h.seqs = append(h.seqs, h.seq)
	h.seq++
}

func (h *dasHeap) Pop() any {
	n := len(h.ops)
	op := h.ops[n-1]
	h.ops[n-1] = nil
	h.ops = h.ops[:n-1]
	h.keys = h.keys[:n-1]
	h.seqs = h.seqs[:n-1]
	setDASHeapIndex(op, -1)
	return op
}

// agingEntry pairs a queued op with the push sequence identifying its
// incarnation (see holds) and, on the aging heap, its promotion
// deadline.
type agingEntry struct {
	op       *sched.Op
	seq      uint64
	deadline time.Duration
}

// agingHeap is a min-heap on promotion deadline. It does not track
// positions: ops served through the priority heap leave their entries
// behind, to be skipped lazily (see holds) when they surface. It sifts
// typed entries itself rather than going through container/heap, whose
// Push and Pop box every entry in an interface — an allocation per
// queued op on the live server's path.
type agingHeap []agingEntry

// push adds e and restores the heap order.
func (h *agingHeap) push(e agingEntry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent].deadline <= a[i].deadline {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

// pop removes the earliest-deadline entry; the heap must be non-empty.
func (h *agingHeap) pop() {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a[n] = agingEntry{}
	a = a[:n]
	for i := 0; ; {
		small, l := i, 2*i+1
		if l < n && a[l].deadline < a[small].deadline {
			small = l
		}
		if r := l + 1; r < n && a[r].deadline < a[small].deadline {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
}

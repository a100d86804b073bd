package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/daskv/daskv/internal/dist"
	"github.com/daskv/daskv/internal/sched"
)

func mustDAS(t *testing.T, opts Options) *DAS {
	t.Helper()
	q, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

// dasOp builds an op with the given SRPT key and slack.
func dasOp(req sched.RequestID, remaining, slack time.Duration) *sched.Op {
	return &sched.Op{
		Request: req,
		Demand:  time.Millisecond,
		Tags: sched.Tags{
			RemainingTime:  remaining,
			ExpectedFinish: 100 * time.Millisecond,
			RequestFinish:  100*time.Millisecond + slack,
		},
	}
}

func TestDASOptionsValidation(t *testing.T) {
	if _, err := New(Options{Alpha: -0.1}); err == nil {
		t.Fatal("negative alpha should error")
	}
	if _, err := New(Options{Alpha: 1.1}); err == nil {
		t.Fatal("alpha > 1 should error")
	}
	if _, err := New(Options{Beta: -1}); err == nil {
		t.Fatal("negative beta should error")
	}
	if _, err := New(Options{MaxDelay: -time.Second}); err == nil {
		t.Fatal("negative MaxDelay should error")
	}
	if _, err := New(DefaultOptions()); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestDASSRPTFirstOrdering(t *testing.T) {
	q := mustDAS(t, Options{})
	q.Push(dasOp(1, 100*time.Millisecond, 0), 0)
	q.Push(dasOp(2, 10*time.Millisecond, 0), 0)
	q.Push(dasOp(3, 50*time.Millisecond, 0), 0)
	want := []sched.RequestID{2, 3, 1}
	for _, w := range want {
		if got := q.Pop(0).Request; got != w {
			t.Fatalf("pop = request %d, want %d (SRPT order)", got, w)
		}
	}
}

func TestDASSlackDemotionFiresAboveThreshold(t *testing.T) {
	q := mustDAS(t, Options{Beta: 1})
	// Request 1's op is stuck behind a queue elsewhere far longer than
	// its whole remaining processing time (slack 50ms > remaining
	// 20ms): key = 20 + 1*20 = 40ms, demoted past the 21ms request.
	q.Push(dasOp(1, 20*time.Millisecond, 50*time.Millisecond), 0)
	q.Push(dasOp(2, 21*time.Millisecond, 0), 0)
	if got := q.Pop(0).Request; got != 2 {
		t.Fatalf("first pop = request %d, want 2 (high-slack op demoted)", got)
	}
}

func TestDASSlackBelowThresholdIgnored(t *testing.T) {
	q := mustDAS(t, Options{Beta: 1})
	// Slack 10ms <= remaining 20ms: below the demotion threshold, so
	// pure SRPT order holds and the smaller remaining time wins.
	q.Push(dasOp(1, 20*time.Millisecond, 10*time.Millisecond), 0)
	q.Push(dasOp(2, 21*time.Millisecond, 0), 0)
	if got := q.Pop(0).Request; got != 1 {
		t.Fatalf("first pop = request %d, want 1 (small slack must not perturb SRPT)", got)
	}
}

func TestDASSlackDemotionCapped(t *testing.T) {
	q := mustDAS(t, Options{Beta: 1})
	// Huge slack demotes by at most Beta*RemainingTime: key = 10+10 =
	// 20ms, which still beats a 25ms zero-slack request.
	q.Push(dasOp(1, 10*time.Millisecond, time.Hour), 0)
	q.Push(dasOp(2, 25*time.Millisecond, 0), 0)
	if got := q.Pop(0).Request; got != 1 {
		t.Fatalf("first pop = request %d, want 1 (demotion capped)", got)
	}
}

func TestDASNoSlackTermWhenBetaZero(t *testing.T) {
	q := mustDAS(t, Options{Beta: 0})
	q.Push(dasOp(1, 20*time.Millisecond, time.Hour), 0)
	q.Push(dasOp(2, 21*time.Millisecond, 0), 0)
	if got := q.Pop(0).Request; got != 1 {
		t.Fatalf("first pop = request %d, want 1 (beta=0 ignores slack)", got)
	}
}

func TestDASContinuousAging(t *testing.T) {
	q := mustDAS(t, Options{Alpha: 0.5})
	// Old large request vs newer slightly-smaller request:
	// key(1) = 100ms + 0.5*0 = 100ms; key(2) = 90ms + 0.5*60ms = 120ms.
	q.Push(dasOp(1, 100*time.Millisecond, 0), 0)
	q.Push(dasOp(2, 90*time.Millisecond, 0), 60*time.Millisecond)
	if got := q.Pop(60 * time.Millisecond).Request; got != 1 {
		t.Fatalf("first pop = request %d, want 1 (aging)", got)
	}
}

func TestDASNoAgingWhenAlphaZero(t *testing.T) {
	q := mustDAS(t, Options{})
	q.Push(dasOp(1, 100*time.Millisecond, 0), 0)
	q.Push(dasOp(2, 90*time.Millisecond, 0), 60*time.Millisecond)
	if got := q.Pop(60 * time.Millisecond).Request; got != 2 {
		t.Fatalf("first pop = request %d, want 2 (no aging)", got)
	}
}

func TestDASMaxDelayPromotesOldest(t *testing.T) {
	q := mustDAS(t, Options{MaxDelay: 10 * time.Millisecond})
	// A large request queued at t=0, small ones arriving later.
	q.Push(dasOp(1, time.Second, 0), 0)
	q.Push(dasOp(2, time.Millisecond, 0), 5*time.Millisecond)
	q.Push(dasOp(3, time.Millisecond, 0), 6*time.Millisecond)
	// Before the bound: SRPT order.
	if got := q.Pop(8 * time.Millisecond).Request; got != 2 {
		t.Fatalf("pop before bound = request %d, want 2", got)
	}
	// Past the bound: the starving op jumps the queue.
	if got := q.Pop(11 * time.Millisecond).Request; got != 1 {
		t.Fatalf("pop past bound = request %d, want 1 (promoted)", got)
	}
	if got := q.Pop(11 * time.Millisecond).Request; got != 3 {
		t.Fatalf("final pop = request %d, want 3", got)
	}
	if q.Len() != 0 || q.BacklogDemand() != 0 {
		t.Fatalf("queue not drained: len=%d backlog=%v", q.Len(), q.BacklogDemand())
	}
}

func TestDASMaxDelayHeapStaysConsistent(t *testing.T) {
	q := mustDAS(t, Options{MaxDelay: time.Millisecond})
	rng := dist.NewRand(5)
	now := time.Duration(0)
	pushed, popped := 0, 0
	seen := map[sched.RequestID]bool{}
	for i := 0; i < 2000; i++ {
		now += time.Duration(rng.Int64N(int64(time.Millisecond)))
		if rng.IntN(2) == 0 || q.Len() == 0 {
			pushed++
			q.Push(dasOp(sched.RequestID(pushed), time.Duration(rng.Int64N(int64(time.Second))), 0), now)
			continue
		}
		op := q.Pop(now)
		if op == nil {
			t.Fatal("nil pop with work queued")
		}
		if seen[op.Request] {
			t.Fatalf("request %d served twice", op.Request)
		}
		seen[op.Request] = true
		popped++
	}
	for q.Len() > 0 {
		op := q.Pop(now)
		if op == nil || seen[op.Request] {
			t.Fatal("drain inconsistency")
		}
		seen[op.Request] = true
		popped++
	}
	if popped != pushed {
		t.Fatalf("popped %d, pushed %d", popped, pushed)
	}
	if q.BacklogDemand() != 0 {
		t.Fatalf("backlog = %v after drain", q.BacklogDemand())
	}
}

func TestDASFIFOTieBreak(t *testing.T) {
	q := mustDAS(t, Options{})
	for i := 1; i <= 10; i++ {
		q.Push(dasOp(sched.RequestID(i), time.Second, 0), 0)
	}
	for i := 1; i <= 10; i++ {
		if got := q.Pop(0).Request; got != sched.RequestID(i) {
			t.Fatalf("tie order broken at %d: got %d", i, got)
		}
	}
}

func TestDASEmptyPop(t *testing.T) {
	q := mustDAS(t, DefaultOptions())
	if q.Pop(0) != nil {
		t.Fatal("Pop on empty should be nil")
	}
	if q.Len() != 0 || q.BacklogDemand() != 0 {
		t.Fatal("empty queue should report zero length and backlog")
	}
}

func TestDASBacklogTracking(t *testing.T) {
	q := mustDAS(t, DefaultOptions())
	a := dasOp(1, time.Second, 0)
	a.Demand = 2 * time.Millisecond
	b := dasOp(2, time.Second, 0)
	b.Demand = 3 * time.Millisecond
	q.Push(a, 0)
	q.Push(b, 0)
	if q.BacklogDemand() != 5*time.Millisecond {
		t.Fatalf("backlog = %v, want 5ms", q.BacklogDemand())
	}
	q.Pop(0)
	q.Pop(0)
	if q.BacklogDemand() != 0 {
		t.Fatalf("backlog after drain = %v, want 0", q.BacklogDemand())
	}
}

func TestDASDrainsAllQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRand(seed)
		q := mustDAS(t, DefaultOptions())
		const n = 200
		for i := 0; i < n; i++ {
			rem := time.Duration(rng.Int64N(int64(time.Second)))
			slack := time.Duration(rng.Int64N(int64(time.Second)))
			q.Push(dasOp(sched.RequestID(i), rem, slack), time.Duration(i)*time.Microsecond)
		}
		seen := map[sched.RequestID]bool{}
		prevKey := -1.0
		for q.Len() > 0 {
			k := q.keys[0]
			if k < prevKey {
				return false
			}
			prevKey = k
			op := q.Pop(0)
			if op == nil || seen[op.Request] {
				return false
			}
			seen[op.Request] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDASFactoryFallsBackOnBadOptions(t *testing.T) {
	p := Factory(Options{Alpha: -5})(0)
	if p == nil || p.Name() != "DAS" {
		t.Fatal("factory should fall back to defaults")
	}
}

func TestDASName(t *testing.T) {
	if mustDAS(t, DefaultOptions()).Name() != "DAS" {
		t.Fatal("Name should be DAS")
	}
}

func TestDASSlackThresholdConfigurable(t *testing.T) {
	// With threshold 3, slack of 2.5x remaining must NOT demote.
	q := mustDAS(t, Options{Beta: 1, SlackThreshold: 3})
	q.Push(dasOp(1, 20*time.Millisecond, 50*time.Millisecond), 0)
	q.Push(dasOp(2, 21*time.Millisecond, 0), 0)
	if got := q.Pop(0).Request; got != 1 {
		t.Fatalf("first pop = request %d, want 1 (below threshold)", got)
	}
	// Negative threshold is rejected.
	if _, err := New(Options{SlackThreshold: -1}); err == nil {
		t.Fatal("negative threshold should error")
	}
}

func TestDASDecisionStats(t *testing.T) {
	q := mustDAS(t, Options{Beta: 1, MaxDelay: 10 * time.Millisecond})
	// One plain SRPT push, one demoted push (slack beyond remaining).
	srpt := dasOp(1, 20*time.Millisecond, 0)
	demoted := dasOp(2, 20*time.Millisecond, 50*time.Millisecond)
	q.Push(srpt, 0)
	q.Push(demoted, 0)
	d := q.Decisions()
	if d.Pushed != 2 || d.SRPTFirst != 1 || d.LRPTDemoted != 1 {
		t.Fatalf("decisions after pushes = %+v", d)
	}
	if srpt.Class != sched.ClassSRPTFirst || demoted.Class != sched.ClassLRPTLast {
		t.Fatalf("classes = %v / %v", srpt.Class, demoted.Class)
	}
	// Let the demoted op exceed MaxDelay: it is promoted past priority.
	if got := q.Pop(0); got.Request != 1 {
		t.Fatalf("first pop = request %d, want 1", got.Request)
	}
	if got := q.Pop(20 * time.Millisecond); got.Request != 2 {
		t.Fatalf("promoted pop = request %d, want 2", got.Request)
	} else if got.Class != sched.ClassPromoted {
		t.Fatalf("promoted op class = %v, want promoted", got.Class)
	}
	if d := q.Decisions(); d.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", d.Promotions)
	}
}

func TestDASNearBoundaryCounted(t *testing.T) {
	q := mustDAS(t, Options{Beta: 1})
	// Slack at 1.05x remaining falls inside the ±10% boundary band.
	q.Push(dasOp(1, 20*time.Millisecond, 21*time.Millisecond), 0)
	// Slack at 2.5x remaining is far from the boundary.
	q.Push(dasOp(2, 20*time.Millisecond, 50*time.Millisecond), 0)
	d := q.Decisions()
	if d.NearBoundary != 1 {
		t.Fatalf("near-boundary = %d, want 1 (stats %+v)", d.NearBoundary, d)
	}
}

func TestDASBetaZeroClassifiesSRPT(t *testing.T) {
	q := mustDAS(t, Options{Beta: 0})
	op := dasOp(1, 20*time.Millisecond, time.Hour)
	q.Push(op, 0)
	// With the slack term ablated nothing is really demoted, so the
	// classification must stay honest.
	if op.Class != sched.ClassSRPTFirst {
		t.Fatalf("class = %v, want srpt-first under Beta=0", op.Class)
	}
	if d := q.Decisions(); d.LRPTDemoted != 0 || d.SRPTFirst != 1 {
		t.Fatalf("decisions = %+v", d)
	}
}

// TestDASAgingBoundPromotes asserts the relative bound: an op that
// waited past AgingBound x its remaining time is served next, out of
// key order, classified as promoted.
func TestDASAgingBoundPromotes(t *testing.T) {
	q := mustDAS(t, Options{Beta: 0.1, AgingBound: 2})
	big := dasOp(1, 10*time.Millisecond, 0) // allowance = 20ms
	q.Push(big, 0)
	q.Push(dasOp(2, time.Millisecond, 0), 19*time.Millisecond)
	// At 19ms the deadline (20ms) has not expired: SRPT order holds.
	if got := q.Pop(19 * time.Millisecond); got.Request != 2 {
		t.Fatalf("pop before deadline = request %d, want 2 (SRPT)", got.Request)
	}
	q.Push(dasOp(3, time.Millisecond, 0), 21*time.Millisecond)
	// Past the deadline the starved op jumps the shorter one.
	got := q.Pop(21 * time.Millisecond)
	if got != big {
		t.Fatalf("pop past deadline = request %d, want the aged op", got.Request)
	}
	if got.Class != sched.ClassPromoted {
		t.Fatalf("class = %v, want promoted", got.Class)
	}
	if d := q.Decisions(); d.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", d.Promotions)
	}
}

// TestDASAgingDeadlineIsStrict asserts the bound fires only strictly
// past the deadline, so frozen-time pops keep pure key order.
func TestDASAgingDeadlineIsStrict(t *testing.T) {
	q := mustDAS(t, Options{AgingBound: 2})
	big := dasOp(1, 10*time.Millisecond, 0)
	q.Push(big, 0)
	q.Push(dasOp(2, time.Millisecond, 0), 20*time.Millisecond)
	if got := q.Pop(20 * time.Millisecond); got.Request != 2 {
		t.Fatalf("pop at exact deadline = request %d, want 2 (bound must not fire)", got.Request)
	}
}

// TestDASAgingLazyDeletion asserts stale aging entries (ops already
// served through the priority heap) are skipped, and an emptied queue
// discards the leftover entries.
func TestDASAgingLazyDeletion(t *testing.T) {
	q := mustDAS(t, Options{AgingBound: 1})
	a := dasOp(1, time.Millisecond, 0)
	b := dasOp(2, 2*time.Millisecond, 0)
	q.Push(a, 0)
	q.Push(b, 0)
	if got := q.Pop(0); got != a {
		t.Fatalf("pop = request %d, want 1", got.Request)
	}
	// a's aging entry is now stale; far in the future b must still be
	// served exactly once, via promotion past its own deadline.
	got := q.Pop(time.Hour)
	if got != b {
		t.Fatalf("pop = %v, want request 2", got)
	}
	if q.Pop(time.Hour) != nil {
		t.Fatal("empty queue must pop nil")
	}
	if len(q.aging) != 0 {
		t.Fatalf("drained queue left %d aging entries", len(q.aging))
	}
}

// TestAgingHeapOrder asserts the aging heap surfaces entries in
// deadline order under interleaved pushes and pops.
func TestAgingHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var h agingHeap
	var ref []time.Duration
	for step := 0; step < 5000; step++ {
		if len(h) == 0 || rng.IntN(3) > 0 {
			d := time.Duration(rng.IntN(1000))
			h.push(agingEntry{deadline: d})
			ref = append(ref, d)
			continue
		}
		slices.Sort(ref)
		if h[0].deadline != ref[0] {
			t.Fatalf("step %d: top deadline %v, want %v", step, h[0].deadline, ref[0])
		}
		h.pop()
		ref = ref[1:]
	}
}

// TestDASAgingPushPopAllocFree asserts queueing under the live options'
// starvation bound allocates nothing per op once the queue has grown.
func TestDASAgingPushPopAllocFree(t *testing.T) {
	q := mustDAS(t, LiveOptions())
	ops := make([]*sched.Op, 8)
	for i := range ops {
		ops[i] = dasOp(sched.RequestID(i), time.Duration(i+1)*time.Millisecond, 0)
	}
	now := time.Duration(0)
	cycle := func() {
		now += time.Microsecond
		for _, op := range ops {
			q.Push(op, now)
		}
		for range ops {
			q.Pop(now)
		}
	}
	cycle() // grow the heaps and the live map
	if got := testing.AllocsPerRun(100, cycle); got > 0 {
		t.Errorf("push+pop of 8 ops allocates %.1f per cycle, want 0", got)
	}
}

// TestDASAgingFloorsUntaggedAtDemand asserts untagged traffic (zero
// RemainingTime) ages on its own demand, not a zero allowance.
func TestDASAgingFloorsUntaggedAtDemand(t *testing.T) {
	q := mustDAS(t, Options{AgingBound: 4})
	op := &sched.Op{Request: 1, Demand: time.Millisecond}
	if got := q.agingAllowance(op); got != 4*time.Millisecond {
		t.Fatalf("allowance = %v, want 4ms (floored at demand)", got)
	}
}

// TestDASPushBatchStaysContiguous asserts a coherently tagged batch is
// served as one contiguous run in submission order, with other work
// ordered around it by key.
func TestDASPushBatchStaysContiguous(t *testing.T) {
	q := mustDAS(t, DefaultOptions())
	q.Push(dasOp(1, 5*time.Millisecond, 0), 0)
	q.Push(dasOp(2, 20*time.Millisecond, 0), 0)
	batch := []*sched.Op{
		dasOp(10, 10*time.Millisecond, 0),
		dasOp(11, 10*time.Millisecond, 0),
		dasOp(12, 10*time.Millisecond, 0),
	}
	q.PushBatch(batch, 0)
	want := []sched.RequestID{1, 10, 11, 12, 2}
	for _, w := range want {
		if got := q.Pop(0).Request; got != w {
			t.Fatalf("pop = request %d, want %d", got, w)
		}
	}
}

// TestDASPushBatchOneDecision asserts the LRPT-last demotion is
// evaluated once per batch: every op shares the frame's classification
// and the batch demotes whole, never op by op.
func TestDASPushBatchOneDecision(t *testing.T) {
	q := mustDAS(t, DefaultOptions())
	// Slack 30ms > remaining 10ms: the frame fires the demotion.
	batch := []*sched.Op{
		dasOp(1, 10*time.Millisecond, 30*time.Millisecond),
		dasOp(2, 10*time.Millisecond, 30*time.Millisecond),
	}
	q.PushBatch(batch, 0)
	for _, op := range batch {
		if op.Class != sched.ClassLRPTLast {
			t.Fatalf("request %d class = %v, want lrpt-last", op.Request, op.Class)
		}
	}
	if d := q.Decisions(); d.LRPTDemoted != 2 || d.Pushed != 2 {
		t.Fatalf("decisions = %+v, want 2 demoted of 2 pushed", d)
	}
	// The demoted batch still pops contiguously.
	if a, b := q.Pop(0), q.Pop(0); a.Request != 1 || b.Request != 2 {
		t.Fatalf("pop order = %d,%d, want 1,2", a.Request, b.Request)
	}
}

// TestDASPushBatchEmpty asserts the degenerate frame is a no-op.
func TestDASPushBatchEmpty(t *testing.T) {
	q := mustDAS(t, DefaultOptions())
	q.PushBatch(nil, 0)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after empty batch", q.Len())
	}
}

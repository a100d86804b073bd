package replica

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/sched"
)

// Policy names a replica-selection strategy.
type Policy int

// Selection policies, from oblivious baselines to the adaptive selector
// the experiments evaluate.
const (
	// Primary reads the ring-first holder, stepping past holders the
	// estimator currently quarantines as down. R=1 behavior plus crash
	// masking, no load awareness.
	Primary Policy = iota
	// Random spreads reads uniformly over the replica set.
	Random
	// RoundRobin rotates reads over the replica set in dispatch order.
	RoundRobin
	// LeastOutstanding reads the replica with the fewest of this
	// client's own requests currently in flight (the classic
	// power-of-all-choices load balancer, feedback-free).
	LeastOutstanding
	// Adaptive reads the replica with the earliest expected finish per
	// the DAS estimator's piggybacked backlog/speed view, compensated
	// Tars-style for in-flight requests the feedback cannot see yet.
	Adaptive
)

// String returns the policy's CLI name.
func (p Policy) String() string {
	switch p {
	case Primary:
		return "primary"
	case Random:
		return "random"
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PolicyNames lists the parseable policy names.
func PolicyNames() []string {
	return []string{"primary", "random", "round-robin", "least-outstanding", "adaptive"}
}

// ParsePolicy resolves a CLI name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "primary", "":
		return Primary, nil
	case "random":
		return Random, nil
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "least-outstanding", "leastoutstanding", "lo":
		return LeastOutstanding, nil
	case "adaptive", "fastest", "tars":
		return Adaptive, nil
	default:
		return 0, fmt.Errorf("replica: unknown selection policy %q (want one of %s)",
			s, strings.Join(PolicyNames(), ", "))
	}
}

// Score is one replica's selection rank, exposed for debugging and the
// kvctl `replicas` subcommand. Lower Finish wins.
type Score struct {
	Server sched.ServerID
	// Finish is the estimated absolute completion instant of the read
	// at this replica, including the in-flight compensation (and the
	// quarantine penalty when Down).
	Finish time.Duration
	// Outstanding is this client's in-flight dispatch count against the
	// replica.
	Outstanding int
	// Speed and Backlog echo the estimator's current view (estimator
	// defaults when none is attached).
	Speed   float64
	Backlog time.Duration
	// Down reports the estimator's quarantine state.
	Down bool
}

// Selector picks which replica serves each read. It is safe for
// concurrent use: the live client shares one selector across all request
// goroutines. The estimator may be nil (oblivious policies, or adaptive
// selection before any feedback exists — which then degrades to primary
// order).
type Selector struct {
	policy Policy
	est    *core.Estimator

	mu          sync.Mutex
	rng         *rand.Rand
	rr          uint64
	outstanding map[sched.ServerID]int
}

// NewSelector builds a selector. seed fixes the Random policy's stream
// (and is harmless for the others).
func NewSelector(policy Policy, est *core.Estimator, seed uint64) (*Selector, error) {
	if policy < Primary || policy > Adaptive {
		return nil, fmt.Errorf("replica: unknown selection policy %d", int(policy))
	}
	return &Selector{
		policy:      policy,
		est:         est,
		rng:         rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		outstanding: make(map[sched.ServerID]int),
	}, nil
}

// PolicyID returns the configured policy.
func (s *Selector) PolicyID() Policy { return s.policy }

// OnDispatch records one read dispatched to server; pair with
// OnComplete when its response (or failure) arrives. The counters feed
// LeastOutstanding directly and the Adaptive policy's in-flight
// compensation.
func (s *Selector) OnDispatch(server sched.ServerID) {
	s.mu.Lock()
	s.outstanding[server]++
	s.mu.Unlock()
}

// OnComplete retires one dispatch against server.
func (s *Selector) OnComplete(server sched.ServerID) {
	s.mu.Lock()
	if s.outstanding[server] > 0 {
		s.outstanding[server]--
	}
	s.mu.Unlock()
}

// Outstanding returns the current in-flight count against server.
func (s *Selector) Outstanding(server sched.ServerID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outstanding[server]
}

// Pick chooses the serving replica among cands (in placement priority
// order) for a read of the given demand at time now. cands must be
// non-empty; the slice is not retained.
func (s *Selector) Pick(cands []sched.ServerID, demand, now time.Duration) sched.ServerID {
	if len(cands) == 1 {
		// Fast path shared by every policy — and the R=1 configuration.
		return cands[0]
	}
	switch s.policy {
	case Random:
		s.mu.Lock()
		i := s.rng.IntN(len(cands))
		s.mu.Unlock()
		return cands[i]
	case RoundRobin:
		s.mu.Lock()
		i := int(s.rr % uint64(len(cands)))
		s.rr++
		s.mu.Unlock()
		return cands[i]
	case LeastOutstanding:
		s.mu.Lock()
		best := cands[0]
		for _, c := range cands[1:] {
			if s.outstanding[c] < s.outstanding[best] {
				best = c
			}
		}
		s.mu.Unlock()
		return best
	case Adaptive:
		if s.est != nil {
			best := cands[0]
			bestFinish := s.score(best, demand, now).Finish
			for _, c := range cands[1:] {
				if f := s.score(c, demand, now).Finish; f < bestFinish {
					best, bestFinish = c, f
				}
			}
			return best
		}
		fallthrough
	default: // Primary, and Adaptive without an estimator
		if s.est != nil {
			for _, c := range cands {
				if !s.est.Down(c, now) {
					return c
				}
			}
		}
		return cands[0]
	}
}

// score ranks one candidate: the estimator's expected finish plus the
// Tars-style compensation term — each of this client's own in-flight
// dispatches adds one speed-scaled demand of queueing the piggybacked
// backlog cannot reflect yet.
func (s *Selector) score(c sched.ServerID, demand, now time.Duration) Score {
	s.mu.Lock()
	out := s.outstanding[c]
	s.mu.Unlock()
	sc := Score{Server: c, Outstanding: out, Speed: 1}
	if s.est == nil {
		sc.Finish = now + demand + time.Duration(out)*demand
		return sc
	}
	speed, backlog, _ := s.est.Snapshot(c)
	if speed <= 0 {
		speed = 1
	}
	scaled := time.Duration(float64(demand) / speed)
	sc.Finish = s.est.ExpectedFinish(c, demand, now) + time.Duration(out)*scaled
	sc.Speed = speed
	sc.Backlog = backlog
	sc.Down = s.est.Down(c, now)
	return sc
}

// ScoreOf ranks a single candidate without allocating — the hot-path
// variant of Scores for callers scoring one dispatch target at a time.
func (s *Selector) ScoreOf(c sched.ServerID, demand, now time.Duration) Score {
	return s.score(c, demand, now)
}

// Scores ranks every candidate for introspection (kvctl `replicas`),
// sorted best-first. The ranking matches what Adaptive would pick; the
// oblivious policies ignore it when selecting.
func (s *Selector) Scores(cands []sched.ServerID, demand, now time.Duration) []Score {
	return s.AppendScores(make([]Score, 0, len(cands)), cands, demand, now)
}

// AppendScores appends Scores' ranking of cands to dst and returns the
// extended slice; each candidate is scored once, then the appended run
// is sorted. It allocates only to grow dst.
func (s *Selector) AppendScores(dst []Score, cands []sched.ServerID, demand, now time.Duration) []Score {
	base := len(dst)
	for _, c := range cands {
		dst = append(dst, s.score(c, demand, now))
	}
	slices.SortStableFunc(dst[base:], func(a, b Score) int { return cmp.Compare(a.Finish, b.Finish) })
	return dst
}

// Package sim is the distributed key-value store simulator used for the
// paper's evaluation: N servers behind a consistent-hash ring, each with
// a pluggable operation-scheduling policy, clients issuing multiget
// requests whose operations fan out in parallel, a network delay model,
// and the piggybacked feedback path that feeds DAS's adaptive estimator.
//
// A simulation is fully deterministic for a fixed Config (including
// Seed): the event engine breaks ties by scheduling order and every
// random stream is seeded independently.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/des"
	"github.com/daskv/daskv/internal/dist"
	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/replica"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/topology"
	"github.com/daskv/daskv/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Servers is the cluster size.
	Servers int
	// Vnodes per server on the hash ring (topology.DefaultVnodes if 0).
	Vnodes int
	// Workers is the service concurrency per server (default 1).
	Workers int

	// Policy builds each server's scheduling queue.
	Policy sched.Factory
	// Preemptive lets an arriving higher-priority operation preempt
	// one in service: the preempted op returns to the queue with its
	// remaining demand. Requires a policy implementing sched.Keyer
	// (FCFS and Random do not). Real key-value servers rarely preempt —
	// the E18 ablation quantifies what that forgoes.
	Preemptive bool
	// Adaptive enables DAS tagging from piggybacked feedback; when
	// false, tags carry only static demand information (what Rein and
	// the DAS-static ablation see).
	Adaptive bool
	// Oracle replaces feedback-based tagging with perfect,
	// zero-staleness knowledge of every server's queued backlog and
	// current speed at dispatch time — the centralized-information
	// upper bound the paper argues is too expensive to collect. Takes
	// precedence over Adaptive.
	Oracle bool
	// Estimator configures the adaptive views (defaults if zero).
	Estimator core.EstimatorConfig
	// Clients is the number of independent front-end clients, each
	// with its own estimator view (default 4). Requests are assigned
	// round-robin.
	Clients int

	// Replicas is how many servers hold each key (default 1). With
	// replication, reads go to one replica chosen per ReplicaSelect.
	Replicas int
	// ReplicaSelect picks the serving replica for each operation
	// (default PrimaryReplica).
	ReplicaSelect ReplicaPolicy

	// Workload is the request stream description. Ignored when Trace
	// is provided.
	Workload workload.Config
	// Trace, when non-empty, replays a fixed request stream (for
	// bit-exact cross-policy comparisons and archived workloads)
	// instead of generating one from Workload. Requests are replayed
	// in slice order; arrivals must be non-decreasing.
	Trace []workload.Request
	// Requests is how many requests to generate (required unless Trace
	// is set; with a trace it optionally truncates the replay).
	Requests int

	// HedgeDelay, when positive, sends a duplicate of any operation
	// still incomplete after this delay to a different replica; the
	// first copy to finish completes the op ("tail at scale" hedging).
	// Requires Replicas >= 2. Hedged duplicates consume real capacity,
	// so this trades extra load for tail — experiment E17 quantifies
	// the tradeoff against scheduling.
	HedgeDelay time.Duration

	// ClosedLoop, when positive, switches from open-loop Poisson
	// arrivals to N closed-loop request slots: each slot issues its
	// next multiget when the previous one completes (plus ThinkTime).
	// Workload.RatePerSec is ignored; total requests still honors
	// Requests. This is the regime interactive benchmarks run in, where
	// throughput self-throttles and scheduling moves the latency
	// distribution rather than its mean.
	ClosedLoop int
	// ThinkTime is the per-slot gap between completing one request and
	// issuing the next (closed loop only; default 0).
	ThinkTime dist.Duration
	// Warmup discards requests arriving before this instant from the
	// metrics (queues still see them).
	Warmup time.Duration

	// NetDelay is the one-way network latency distribution (default:
	// deterministic 50µs).
	NetDelay dist.Duration

	// SpeedFor assigns each server a speed profile (default: constant
	// nominal speed).
	SpeedFor func(sched.ServerID) SpeedProfile

	// Seed drives every random stream in the run.
	Seed uint64

	// SeriesWindow, when positive, records a windowed mean-RCT time
	// series (for the time-varying-load figure).
	SeriesWindow time.Duration
}

// ReplicaPolicy selects which replica serves a read. Each maps onto a
// replica.Selector policy, so the simulator and the live client route
// through identical selection code.
type ReplicaPolicy int

// Replica selection strategies.
const (
	// PrimaryReplica always reads the ring primary (no replication
	// benefit; the default and the paper's single-copy model).
	PrimaryReplica ReplicaPolicy = iota
	// RandomReplica spreads reads uniformly over the replica set.
	RandomReplica
	// FastestReplica reads the replica with the earliest estimated
	// finish per the client's adaptive view, with Tars-style in-flight
	// compensation — an extension combining DAS's estimator with
	// load-aware replica selection.
	FastestReplica
	// RoundRobinReplica rotates reads over the replica set.
	RoundRobinReplica
	// LeastOutstandingReplica reads the replica with the fewest of the
	// issuing client's operations in flight.
	LeastOutstandingReplica
)

// selectorPolicy maps the simulator policy onto the replica package's.
func (p ReplicaPolicy) selectorPolicy() replica.Policy {
	switch p {
	case RandomReplica:
		return replica.Random
	case FastestReplica:
		return replica.Adaptive
	case RoundRobinReplica:
		return replica.RoundRobin
	case LeastOutstandingReplica:
		return replica.LeastOutstanding
	default:
		return replica.Primary
	}
}

func (c Config) withDefaults() Config {
	if c.Vnodes == 0 {
		c.Vnodes = topology.DefaultVnodes
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.NetDelay == nil {
		c.NetDelay = dist.Deterministic{V: 50 * time.Microsecond}
	}
	if c.SpeedFor == nil {
		c.SpeedFor = func(sched.ServerID) SpeedProfile { return ConstantSpeed{V: 1} }
	}
	if (c.Estimator == core.EstimatorConfig{}) {
		c.Estimator = core.DefaultEstimatorConfig()
	}
	if c.ClosedLoop > 0 && c.Workload.RatePerSec <= 0 {
		// Closed loop paces itself; the generator still validates rate.
		c.Workload.RatePerSec = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("sim: servers %d must be positive", c.Servers)
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: policy factory required")
	}
	if c.Requests <= 0 && len(c.Trace) == 0 {
		return fmt.Errorf("sim: requests %d must be positive (or provide a trace)", c.Requests)
	}
	for i := 1; i < len(c.Trace); i++ {
		if c.Trace[i].Arrival < c.Trace[i-1].Arrival {
			return fmt.Errorf("sim: trace arrivals decrease at index %d", i)
		}
	}
	if c.Workers < 0 || c.Clients < 0 {
		return fmt.Errorf("sim: workers/clients must be non-negative")
	}
	if c.Replicas < 0 || (c.Replicas > 0 && c.Replicas > c.Servers) {
		return fmt.Errorf("sim: replicas %d must be within [1, servers]", c.Replicas)
	}
	if c.ClosedLoop < 0 {
		return fmt.Errorf("sim: closed-loop clients %d must be non-negative", c.ClosedLoop)
	}
	if c.ClosedLoop > 0 && len(c.Trace) > 0 {
		return fmt.Errorf("sim: closed-loop mode cannot replay a trace (trace arrivals are open-loop)")
	}
	if c.ReplicaSelect < PrimaryReplica || c.ReplicaSelect > LeastOutstandingReplica {
		return fmt.Errorf("sim: unknown replica policy %d", c.ReplicaSelect)
	}
	if c.HedgeDelay < 0 {
		return fmt.Errorf("sim: hedge delay %v must be non-negative", c.HedgeDelay)
	}
	if c.HedgeDelay > 0 && c.Replicas < 2 {
		return fmt.Errorf("sim: hedging requires >= 2 replicas, got %d", c.Replicas)
	}
	return nil
}

// Result holds the measured outcome of one run.
type Result struct {
	// Policy is the scheduling policy name.
	Policy string
	// RCT is the request completion time distribution (client-observed,
	// arrival to last response).
	RCT *metrics.Summary
	// OpLatency is the per-operation latency distribution (enqueue to
	// completion at the server).
	OpLatency *metrics.Summary
	// QueueWait is the per-operation queueing delay distribution.
	QueueWait *metrics.Summary
	// Series is the windowed mean RCT over time (nil unless requested).
	Series *metrics.TimeSeries
	// Completed counts requests that finished and were recorded.
	Completed uint64
	// GeneratedRequests and GeneratedOps count the offered work.
	GeneratedRequests uint64
	GeneratedOps      uint64
	// HedgedOps counts duplicate operations issued by hedging.
	HedgedOps uint64
	// SimulatedTime is the virtual instant the run ended.
	SimulatedTime time.Duration
	// MeanQueueLen is the time-averaged queue length across servers,
	// sampled at operation completions.
	MeanQueueLen float64
	// Servers summarizes per-server activity (indexed by ServerID).
	Servers []ServerLoad
	// ByFanout breaks the RCT distribution down by request width,
	// bucketed to powers of two (bucket 4 holds fanouts 3-4, bucket 8
	// holds 5-8, ...). Narrow and wide requests respond very
	// differently to scheduling; this exposes who pays for whose gain.
	ByFanout map[int]*metrics.Summary
	// Decisions aggregates the scheduling policy's ordering decisions
	// across all servers — SRPT-first vs LRPT-last classifications,
	// near-boundary pushes, and MaxDelay promotions. Nil when the
	// policy does not implement sched.DecisionReporter (e.g. FCFS).
	Decisions *sched.DecisionStats
}

// fanoutBucket rounds a fanout up to its power-of-two bucket.
func fanoutBucket(k int) int {
	b := 1
	for b < k {
		b <<= 1
	}
	return b
}

// ServerLoad is one server's activity summary.
type ServerLoad struct {
	Server sched.ServerID
	// Served is the number of operations completed.
	Served uint64
	// Utilization is busy time divided by simulated time.
	Utilization float64
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	var gen *workload.Generator
	if len(cfg.Trace) == 0 {
		g, err := workload.NewGenerator(cfg.Workload, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		gen = g
	}
	serverIDs := make([]sched.ServerID, cfg.Servers)
	for i := range serverIDs {
		serverIDs[i] = sched.ServerID(i)
	}
	ring, err := topology.NewRing(serverIDs, cfg.Vnodes)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	s := &simulator{
		cfg:  cfg,
		eng:  des.New(),
		ring: ring,
		gen:  gen,
		net:  rand.New(rand.NewPCG(cfg.Seed^0x6e7e7e7e, cfg.Seed+1)),
		result: &Result{
			RCT:       metrics.NewSummary(0),
			OpLatency: metrics.NewSummary(0),
			QueueWait: metrics.NewSummary(0),
			ByFanout:  make(map[int]*metrics.Summary),
		},
	}
	s.servers = make([]*server, cfg.Servers)
	for i := range s.servers {
		id := sched.ServerID(i)
		s.servers[i] = &server{
			id:        id,
			sim:       s,
			policy:    cfg.Policy(cfg.Seed + uint64(i)*7919),
			speed:     cfg.SpeedFor(id),
			workers:   cfg.Workers,
			speedEWMA: cfg.SpeedFor(id).At(0),
		}
	}
	s.result.Policy = s.servers[0].policy.Name()
	s.clients = make([]*client, cfg.Clients)
	for i := range s.clients {
		est, cerr := core.NewEstimator(cfg.Estimator)
		if cerr != nil {
			return nil, fmt.Errorf("sim: %w", cerr)
		}
		// The selector only consults the estimator when the run is
		// adaptive; otherwise FastestReplica degrades to primary order,
		// matching the live client's static-tagging mode.
		var selEst *core.Estimator
		if cfg.Adaptive {
			selEst = est
		}
		sel, serr := replica.NewSelector(cfg.ReplicaSelect.selectorPolicy(), selEst,
			cfg.Seed^(uint64(i)*0x9e3779b9+0x5e1ec7))
		if serr != nil {
			return nil, fmt.Errorf("sim: %w", serr)
		}
		s.clients[i] = &client{sim: s, est: est, sel: sel}
	}
	if cfg.SeriesWindow > 0 {
		// Horizon estimate, padded 2x for drain.
		var horizon time.Duration
		if len(cfg.Trace) > 0 {
			horizon = 2 * cfg.Trace[len(cfg.Trace)-1].Arrival
		} else {
			horizon = time.Duration(2 * float64(cfg.Requests) / cfg.Workload.RatePerSec * float64(time.Second))
		}
		s.result.Series = metrics.NewTimeSeries(cfg.SeriesWindow, horizon)
	}

	if cfg.ClosedLoop > 0 {
		for i := 0; i < cfg.ClosedLoop; i++ {
			s.issueClosedLoop(time.Duration(i) * time.Microsecond)
		}
	} else {
		s.scheduleNextArrival()
	}
	if err := s.eng.Run(0); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.result.SimulatedTime = s.eng.Now()
	if s.queueSamples > 0 {
		s.result.MeanQueueLen = s.queueLenSum / float64(s.queueSamples)
	}
	s.result.Servers = make([]ServerLoad, len(s.servers))
	for i, sv := range s.servers {
		util := 0.0
		if s.result.SimulatedTime > 0 {
			util = float64(sv.busyTime) / float64(s.result.SimulatedTime)
		}
		s.result.Servers[i] = ServerLoad{
			Server:      sv.id,
			Served:      sv.served,
			Utilization: util,
		}
		if dr, ok := sv.policy.(sched.DecisionReporter); ok {
			if s.result.Decisions == nil {
				s.result.Decisions = &sched.DecisionStats{}
			}
			s.result.Decisions.Add(dr.Decisions())
		}
	}
	return s.result, nil
}

// simulator wires servers, clients and the generator to the engine.
type simulator struct {
	cfg     Config
	eng     *des.Engine
	ring    *topology.Ring
	gen     *workload.Generator
	net     *rand.Rand
	servers []*server
	clients []*client
	result  *Result

	generated    int
	queueLenSum  float64
	queueSamples uint64
}

// opState tracks one logical operation; hedging can put several copies
// of it in flight, and only the first completion counts.
type opState struct {
	req  *request
	done bool
}

// request tracks one in-flight multiget.
type request struct {
	id       sched.RequestID
	arrival  time.Duration
	pending  int
	fanout   int
	client   *client
	recorded bool
}

func (s *simulator) netDelay() time.Duration {
	d := s.cfg.NetDelay.Sample(s.net)
	if d < 0 {
		d = 0
	}
	return d
}

func (s *simulator) scheduleNextArrival() {
	if s.cfg.ClosedLoop > 0 {
		return // slots re-issue on completion instead
	}
	wr, ok := s.nextRequest()
	if !ok {
		return
	}
	s.generated++
	s.eng.At(wr.Arrival, func() { s.admit(wr) })
}

// issueClosedLoop admits one request for a closed-loop slot after delay.
// In closed-loop mode the request's generated arrival instant is
// ignored; it arrives when the slot fires.
func (s *simulator) issueClosedLoop(delay time.Duration) {
	if s.generated >= s.cfg.Requests {
		return
	}
	wr := s.gen.Next()
	s.generated++
	s.eng.Schedule(delay, func() { s.admit(wr) })
}

// nextRequest pulls from the replay trace or the generator.
func (s *simulator) nextRequest() (workload.Request, bool) {
	if len(s.cfg.Trace) > 0 {
		limit := len(s.cfg.Trace)
		if s.cfg.Requests > 0 && s.cfg.Requests < limit {
			limit = s.cfg.Requests
		}
		if s.generated >= limit {
			return workload.Request{}, false
		}
		return s.cfg.Trace[s.generated], true
	}
	if s.generated >= s.cfg.Requests {
		return workload.Request{}, false
	}
	return s.gen.Next(), true
}

func (s *simulator) admit(wr workload.Request) {
	now := s.eng.Now()
	cl := s.clients[int(wr.ID)%len(s.clients)]
	req := &request{id: wr.ID, arrival: now, pending: len(wr.Ops), fanout: len(wr.Ops), client: cl}
	var est *core.Estimator
	if s.cfg.Adaptive {
		est = cl.est
	}
	ops := make([]*sched.Op, len(wr.Ops))
	for i, spec := range wr.Ops {
		ops[i] = &sched.Op{
			Request: wr.ID,
			Index:   i,
			Server:  cl.route(spec.Key, spec.Demand, now),
			Key:     spec.Key,
			Demand:  spec.Demand,
			Payload: &opState{req: req},
		}
		// Size-annotated workloads carry the payload size into the
		// scheduler tags, exactly as the live wire's size hint does.
		ops[i].Tags.SizeBytes = spec.ValueBytes
	}
	if s.cfg.Oracle {
		s.oracleTag(ops, now)
	} else {
		core.Tag(ops, est, now)
	}
	s.result.GeneratedRequests++
	s.result.GeneratedOps += uint64(len(ops))
	for _, op := range ops {
		op := op
		srv := s.servers[op.Server]
		s.eng.Schedule(s.netDelay(), func() { srv.enqueue(op) })
		if s.cfg.HedgeDelay > 0 {
			s.armHedge(op)
		}
	}
	s.scheduleNextArrival()
}

// armHedge schedules a duplicate of op to an alternate replica, fired
// only if the logical op is still incomplete after the hedge delay.
func (s *simulator) armHedge(op *sched.Op) {
	state, ok := op.Payload.(*opState)
	if !ok {
		return
	}
	s.eng.Schedule(s.cfg.HedgeDelay, func() {
		if state.done {
			return
		}
		alt := s.alternateReplica(op.Key, op.Server)
		if alt == op.Server {
			return
		}
		state.req.client.sel.OnDispatch(alt)
		dup := &sched.Op{
			Request: op.Request,
			Index:   op.Index,
			Server:  alt,
			Key:     op.Key,
			Demand:  op.Demand,
			Tags:    op.Tags,
			Payload: state,
		}
		s.result.HedgedOps++
		srv := s.servers[alt]
		s.eng.Schedule(s.netDelay(), func() { srv.enqueue(dup) })
	})
}

// alternateReplica returns a replica holder of key other than avoid.
func (s *simulator) alternateReplica(key string, avoid sched.ServerID) sched.ServerID {
	for _, c := range s.ring.LookupN(key, s.cfg.Replicas) {
		if c != avoid {
			return c
		}
	}
	return avoid
}

// oracleTag stamps ops with perfect instantaneous server state: true
// current speed and true queued backlog, no staleness, no estimation.
func (s *simulator) oracleTag(ops []*sched.Op, now time.Duration) {
	if len(ops) == 0 {
		return
	}
	var maxDemand time.Duration
	for _, op := range ops {
		if op.Demand > maxDemand {
			maxDemand = op.Demand
		}
	}
	var maxScaled, requestFinish time.Duration
	for _, op := range ops {
		srv := s.servers[op.Server]
		speed := srv.speed.At(now)
		if speed <= 0 {
			speed = 1e-6
		}
		scaled := time.Duration(float64(op.Demand) / speed)
		wait := time.Duration(float64(srv.policy.BacklogDemand()) / speed)
		op.Tags.ScaledDemand = scaled
		op.Tags.ExpectedFinish = now + wait + scaled
		if scaled > maxScaled {
			maxScaled = scaled
		}
		if op.Tags.ExpectedFinish > requestFinish {
			requestFinish = op.Tags.ExpectedFinish
		}
	}
	for _, op := range ops {
		op.Tags.IssuedAt = now
		op.Tags.Fanout = len(ops)
		op.Tags.DemandBottleneck = maxDemand
		op.Tags.RemainingTime = maxScaled
		op.Tags.RequestFinish = requestFinish
	}
}

// route picks the serving replica for one operation through the shared
// replica.Selector (identical code to the live client) and records the
// dispatch for in-flight accounting; every dispatch is retired in
// onResponse.
func (cl *client) route(key string, demand, now time.Duration) sched.ServerID {
	var server sched.ServerID
	if cl.sim.cfg.Replicas <= 1 {
		server = cl.sim.ring.Lookup(key)
	} else {
		server = cl.sel.Pick(cl.sim.ring.LookupN(key, cl.sim.cfg.Replicas), demand, now)
	}
	cl.sel.OnDispatch(server)
	return server
}

// server is one simulated key-value node.
type server struct {
	id        sched.ServerID
	sim       *simulator
	policy    sched.Policy
	speed     SpeedProfile
	workers   int
	speedEWMA float64
	busyTime  time.Duration
	served    uint64
	inService []*serving
}

// serving is one operation currently occupying a worker.
type serving struct {
	op      *sched.Op
	timer   *des.Timer
	started time.Duration
	speed   float64
	key     float64
}

func (sv *server) enqueue(op *sched.Op) {
	now := sv.sim.eng.Now()
	sv.policy.Push(op, now)
	sv.dispatch()
	if sv.sim.cfg.Preemptive {
		sv.maybePreempt(now)
	}
}

func (sv *server) dispatch() {
	now := sv.sim.eng.Now()
	for len(sv.inService) < sv.workers {
		op := sv.policy.Pop(now)
		if op == nil {
			return
		}
		sv.startService(op, now)
	}
}

// startService begins serving op on a free worker.
func (sv *server) startService(op *sched.Op, now time.Duration) {
	speed := sv.speed.At(now)
	if speed <= 0 {
		speed = 1e-6 // a dead-slow server still makes progress
	}
	entry := &serving{op: op, started: now, speed: speed}
	if keyer, ok := sv.policy.(sched.Keyer); ok {
		entry.key = keyer.Key(op)
	}
	proc := time.Duration(float64(op.Demand) / speed)
	sv.sim.result.QueueWait.Observe(now - op.Enqueued)
	entry.timer = sv.sim.eng.Schedule(proc, func() { sv.finish(entry) })
	sv.inService = append(sv.inService, entry)
}

// maybePreempt swaps the best queued operation in for the worst
// in-service one when the policy's priority key says so.
func (sv *server) maybePreempt(now time.Duration) {
	keyer, ok := sv.policy.(sched.Keyer)
	if !ok || len(sv.inService) < sv.workers || sv.policy.Len() == 0 {
		return
	}
	victimIdx := 0
	for i, e := range sv.inService {
		if e.key > sv.inService[victimIdx].key {
			victimIdx = i
		}
	}
	victim := sv.inService[victimIdx]
	cand := sv.policy.Pop(now)
	if cand == nil {
		return
	}
	if keyer.Key(cand) >= victim.key {
		sv.policy.Push(cand, now)
		return
	}
	// Preempt: bank the victim's progress and requeue its remainder.
	if !victim.timer.Stop() {
		// The completion fires at this very instant; let it win.
		sv.policy.Push(cand, now)
		return
	}
	consumed := time.Duration(float64(now-victim.started) * victim.speed)
	sv.busyTime += time.Duration(float64(consumed) / victim.speed)
	remaining := victim.op.Demand - consumed
	if remaining <= 0 {
		remaining = time.Nanosecond
	}
	victim.op.Demand = remaining
	sv.inService = append(sv.inService[:victimIdx], sv.inService[victimIdx+1:]...)
	sv.policy.Push(victim.op, now)
	sv.startService(cand, now)
}

// finish completes an in-service entry.
func (sv *server) finish(entry *serving) {
	for i, e := range sv.inService {
		if e == entry {
			sv.inService = append(sv.inService[:i], sv.inService[i+1:]...)
			break
		}
	}
	sv.complete(entry.op, entry.speed)
}

// feedbackGain smooths the server's self-reported speed; a small gain
// rides out single-op noise while still tracking step changes within a
// few tens of completions.
const feedbackGain = 0.2

func (sv *server) complete(op *sched.Op, speed float64) {
	now := sv.sim.eng.Now()
	sv.busyTime += time.Duration(float64(op.Demand) / speed)
	sv.served++
	sv.speedEWMA += feedbackGain * (speed - sv.speedEWMA)
	sv.sim.result.OpLatency.Observe(now - op.Enqueued)
	sv.sim.queueLenSum += float64(sv.policy.Len())
	sv.sim.queueSamples++

	fb := core.Feedback{
		Server:   sv.id,
		QueueLen: sv.policy.Len(),
		Backlog:  sv.policy.BacklogDemand(),
		Speed:    sv.speedEWMA,
		At:       now,
	}
	state, ok := op.Payload.(*opState)
	if ok {
		sv.sim.eng.Schedule(sv.sim.netDelay(), func() {
			state.req.client.onResponse(state, fb)
		})
	}
	sv.dispatch()
}

// client is one front-end issuing requests and absorbing responses.
type client struct {
	sim *simulator
	est *core.Estimator
	sel *replica.Selector
}

func (cl *client) onResponse(state *opState, fb core.Feedback) {
	now := cl.sim.eng.Now()
	// Retire the dispatch against the answering server (hedged
	// duplicates were each recorded, so each response balances one).
	cl.sel.OnComplete(fb.Server)
	if cl.sim.cfg.Adaptive {
		cl.est.Observe(fb)
	}
	if state.done {
		return // a hedged copy already completed this logical op
	}
	state.done = true
	req := state.req
	req.pending--
	if req.pending > 0 || req.recorded {
		return
	}
	req.recorded = true
	if cl.sim.cfg.ClosedLoop > 0 {
		var think time.Duration
		if cl.sim.cfg.ThinkTime != nil {
			think = cl.sim.cfg.ThinkTime.Sample(cl.sim.net)
		}
		cl.sim.issueClosedLoop(think)
	}
	if req.arrival < cl.sim.cfg.Warmup {
		return
	}
	rct := now - req.arrival
	cl.sim.result.RCT.Observe(rct)
	cl.sim.result.Completed++
	bucket := fanoutBucket(req.fanout)
	fs := cl.sim.result.ByFanout[bucket]
	if fs == nil {
		fs = metrics.NewSummary(10_000)
		cl.sim.result.ByFanout[bucket] = fs
	}
	fs.Observe(rct)
	if cl.sim.result.Series != nil {
		cl.sim.result.Series.Observe(req.arrival, rct)
	}
}

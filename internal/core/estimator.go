// Package core implements the paper's contribution: the Distributed
// Adaptive Scheduler (DAS) for multiget requests in distributed
// key-value stores.
//
// DAS has three cooperating pieces, all in this package:
//
//   - Estimator — the client-side view of every server's current load and
//     speed, maintained purely from feedback piggybacked on responses (no
//     central coordinator, no extra messages).
//   - Tag — the client-side tagger that, at dispatch time, stamps each
//     operation of a request with its expected finish time and the
//     request's expected bottleneck finish time.
//   - DAS — the server-side queueing policy combining SRPT-first across
//     requests with LRPT-last slack demotion within requests, plus
//     anti-starvation aging.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/daskv/daskv/internal/sched"
)

// Feedback is the load/performance snapshot a server piggybacks on every
// response. It is deliberately tiny (two numbers and a timestamp) because
// the paper's premise is that centralized information is too expensive —
// everything DAS learns rides on traffic that flows anyway.
type Feedback struct {
	Server sched.ServerID
	// QueueLen is the number of operations pending at the server.
	QueueLen int
	// Backlog is the total unserved service demand queued at the
	// server, including the remaining demand of the op in service.
	Backlog time.Duration
	// Speed is the server's recent processing speed in demand-units
	// per unit time (1.0 = nominal).
	Speed float64
	// At is the server-side generation instant.
	At time.Duration
}

// EstimatorConfig tunes the client-side view.
type EstimatorConfig struct {
	// Gain is the EWMA weight of a fresh observation in (0, 1].
	Gain float64
	// StaleAfter is the age beyond which a view's backlog information
	// is considered fully drained and only the speed estimate is kept.
	StaleAfter time.Duration
	// DefaultSpeed seeds the speed estimate for servers never heard
	// from (1.0 = nominal hardware).
	DefaultSpeed float64
	// ReviveAfter is how long a server marked down (MarkDown) stays
	// quarantined before the estimator lets traffic probe it again.
	// Until then ExpectedFinish carries a large penalty so replica
	// selection routes around the corpse; fresh feedback (Observe)
	// revives it immediately.
	ReviveAfter time.Duration
	// CalibrationGain is the EWMA weight of one service-time
	// observation in the per-server demand-calibration ratio, in
	// (0, 1]. The ratio corrects the client's demand model against the
	// service times servers actually report (ObserveService), so a
	// model that is wrong by a constant factor — or a server whose
	// speed feedback misses systematic per-op overhead — converges to
	// honest tags instead of trusting its misestimate forever.
	CalibrationGain float64
}

// DefaultEstimatorConfig returns the parameters used throughout the
// evaluation.
func DefaultEstimatorConfig() EstimatorConfig {
	return EstimatorConfig{
		Gain:            0.3,
		StaleAfter:      5 * time.Second,
		DefaultSpeed:    1.0,
		ReviveAfter:     2 * time.Second,
		CalibrationGain: 0.2,
	}
}

func (c EstimatorConfig) validate() error {
	if c.Gain <= 0 || c.Gain > 1 {
		return fmt.Errorf("estimator: gain %v outside (0,1]", c.Gain)
	}
	if c.StaleAfter <= 0 {
		return fmt.Errorf("estimator: StaleAfter %v must be positive", c.StaleAfter)
	}
	if c.DefaultSpeed <= 0 {
		return fmt.Errorf("estimator: DefaultSpeed %v must be positive", c.DefaultSpeed)
	}
	if c.ReviveAfter < 0 {
		return fmt.Errorf("estimator: ReviveAfter %v must be non-negative", c.ReviveAfter)
	}
	if c.CalibrationGain < 0 || c.CalibrationGain > 1 {
		return fmt.Errorf("estimator: CalibrationGain %v outside [0,1]", c.CalibrationGain)
	}
	return nil
}

type serverView struct {
	speed     float64
	backlog   time.Duration
	updatedAt time.Duration
	known     bool
	down      bool
	downSince time.Duration
	// cal is the demand-calibration ratio: how much larger (or smaller)
	// this server's reported service times run than the client's raw,
	// speed-scaled demand predictions. 0 means "never calibrated" and
	// reads as 1.
	cal float64
}

// Estimator maintains per-server load and speed views from piggybacked
// feedback. It is safe for concurrent use: in the live store many client
// goroutines share one estimator.
type Estimator struct {
	cfg EstimatorConfig

	mu    sync.Mutex
	views map[sched.ServerID]*serverView
	// sizes is the size-to-service-time model fed by the calibration
	// loop (see sizemodel.go).
	sizes sizeModel
}

// NewEstimator returns an estimator with the given configuration.
func NewEstimator(cfg EstimatorConfig) (*Estimator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg, views: make(map[sched.ServerID]*serverView)}, nil
}

// Observe folds one piece of piggybacked feedback into the view.
func (e *Estimator) Observe(fb Feedback) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[fb.Server]
	if !ok {
		v = &serverView{speed: e.cfg.DefaultSpeed}
		e.views[fb.Server] = v
	}
	if fb.Speed > 0 {
		if v.known {
			v.speed += e.cfg.Gain * (fb.Speed - v.speed)
		} else {
			v.speed = fb.Speed
		}
	}
	// Keep the freshest backlog snapshot; feedback can arrive out of
	// order over different connections.
	if fb.At >= v.updatedAt {
		v.backlog = fb.Backlog
		v.updatedAt = fb.At
	}
	v.known = true
	// A response is proof of life: revive a down-marked server.
	v.down = false
}

// calClamp bounds one calibration observation and the running ratio, so
// a single wild service report (GC pause, cold cache) cannot swing the
// demand model by more than this factor in either direction.
const calClamp = 64.0

// ObserveService folds one server-reported service time into the
// per-server demand-calibration ratio: predicted is the client's raw
// demand estimate for the operation, actual the service time the server
// measured (response Timing). The speed estimate is factored out of the
// observation so speed corrections (Observe) and demand corrections
// compose instead of double-counting. Callers must not feed shed or
// errored responses here — a zero or negative duration on either side
// is ignored, which also covers shed ops that report zero service.
func (e *Estimator) ObserveService(server sched.ServerID, predicted, actual time.Duration) {
	if e.cfg.CalibrationGain <= 0 || predicted <= 0 || actual <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[server]
	if !ok {
		v = &serverView{speed: e.cfg.DefaultSpeed}
		e.views[server] = v
	}
	speed := v.speed
	if !v.known || speed <= 0 {
		speed = e.cfg.DefaultSpeed
	}
	// actual×speed is the demand the service time implies at the
	// current speed view; obs is its ratio to what the model predicted.
	obs := float64(actual) * speed / float64(predicted)
	if obs < 1/calClamp {
		obs = 1 / calClamp
	} else if obs > calClamp {
		obs = calClamp
	}
	if v.cal <= 0 {
		v.cal = obs
	} else {
		v.cal += e.cfg.CalibrationGain * (obs - v.cal)
	}
	if v.cal < 1/calClamp {
		v.cal = 1 / calClamp
	} else if v.cal > calClamp {
		v.cal = calClamp
	}
}

// CalibratedDemand corrects a raw demand estimate by the server's
// calibration ratio (identity for servers never calibrated or when
// calibration is disabled).
func (e *Estimator) CalibratedDemand(server sched.ServerID, demand time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.views[server]; ok && v.cal > 0 {
		return time.Duration(float64(demand) * v.cal)
	}
	return demand
}

// CalibrationRatio returns the server's current demand-calibration
// ratio (1 when never calibrated), for introspection and tests.
func (e *Estimator) CalibrationRatio(server sched.ServerID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.views[server]; ok && v.cal > 0 {
		return v.cal
	}
	return 1
}

// MarkDown records a server as unreachable at time at (a failed dial, a
// torn connection, a request that died on the wire). While down —
// until fresh feedback arrives or ReviveAfter elapses — ExpectedFinish
// carries a large penalty so adaptive routing and tagging treat the
// server as a last resort, and its stale backlog view is discarded.
func (e *Estimator) MarkDown(server sched.ServerID, at time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[server]
	if !ok {
		v = &serverView{speed: e.cfg.DefaultSpeed}
		e.views[server] = v
	}
	if !v.down {
		v.downSince = at
	}
	v.down = true
	v.known = true
	// The backlog snapshot predates the failure; a restarted server
	// comes back empty, and a hung one is unusable either way.
	v.backlog = 0
}

// Down reports whether the server is inside its down quarantine at
// time now. It ages out: after ReviveAfter the server is considered a
// probe candidate again (and a fresh failure re-quarantines it).
func (e *Estimator) Down(server sched.ServerID, now time.Duration) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.downLocked(server, now)
}

func (e *Estimator) downLocked(server sched.ServerID, now time.Duration) bool {
	v, ok := e.views[server]
	if !ok || !v.down || e.cfg.ReviveAfter <= 0 {
		return false
	}
	return now-v.downSince < e.cfg.ReviveAfter
}

// downPenalty dominates any realistic finish estimate so a down server
// loses every replica-selection comparison, while staying far from
// overflow when added to now + scaled demand.
const downPenalty = time.Hour

// Speed returns the current speed estimate for a server.
func (e *Estimator) Speed(server sched.ServerID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.views[server]; ok && v.known {
		return v.speed
	}
	return e.cfg.DefaultSpeed
}

// ExpectedWait estimates the queueing delay a new operation would see at
// the server at virtual time now. The last backlog snapshot is drained
// forward at the estimated speed; views older than StaleAfter contribute
// no wait (the backlog has surely turned over).
func (e *Estimator) ExpectedWait(server sched.ServerID, now time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[server]
	if !ok || !v.known {
		return 0
	}
	age := now - v.updatedAt
	if age < 0 {
		age = 0
	}
	if age > e.cfg.StaleAfter {
		return 0
	}
	speed := v.speed
	if speed <= 0 {
		speed = e.cfg.DefaultSpeed
	}
	wait := time.Duration(float64(v.backlog)/speed) - age
	if wait < 0 {
		return 0
	}
	return wait
}

// tagView returns one server's speed, calibration ratio, and expected
// queueing wait in a single lock acquisition — the tagger's per-group
// view (semantically Speed + CalibrationRatio + ExpectedWait).
func (e *Estimator) tagView(server sched.ServerID, now time.Duration) (speed, cal float64, wait time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	speed, cal = e.cfg.DefaultSpeed, 1.0
	v, ok := e.views[server]
	if !ok {
		return speed, cal, 0
	}
	if v.known && v.speed > 0 {
		speed = v.speed
	}
	if v.cal > 0 {
		cal = v.cal
	}
	if !v.known {
		return speed, cal, 0
	}
	age := now - v.updatedAt
	if age < 0 {
		age = 0
	}
	if age > e.cfg.StaleAfter {
		return speed, cal, 0
	}
	wait = time.Duration(float64(v.backlog)/speed) - age
	if wait < 0 {
		wait = 0
	}
	return speed, cal, wait
}

// ExpectedFinish estimates the absolute completion instant of an
// operation with the given demand dispatched to server at time now:
// now + expected queueing wait + demand scaled by the speed estimate.
func (e *Estimator) ExpectedFinish(server sched.ServerID, demand, now time.Duration) time.Duration {
	wait := e.ExpectedWait(server, now)
	speed := e.Speed(server)
	finish := now + wait + time.Duration(float64(demand)/speed)
	if e.Down(server, now) {
		finish += downPenalty
	}
	return finish
}

// Snapshot returns a copy of the current view of one server for
// introspection and tests. ok is false if the server was never observed.
func (e *Estimator) Snapshot(server sched.ServerID) (speed float64, backlog time.Duration, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, exists := e.views[server]
	if !exists || !v.known {
		return e.cfg.DefaultSpeed, 0, false
	}
	return v.speed, v.backlog, true
}

// ServerSnapshot is one server's view copied out for replica selection
// and debugging tooling.
type ServerSnapshot struct {
	Server sched.ServerID
	// Speed and Backlog are the estimator's current view (the config
	// defaults for servers never heard from).
	Speed   float64
	Backlog time.Duration
	// Calibration is the demand-calibration ratio ObserveService has
	// converged to (1 when never calibrated).
	Calibration float64
	// Age is how stale the backlog snapshot is at the query instant
	// (negative observation clocks clamp to zero).
	Age time.Duration
	// Known is false for servers never observed.
	Known bool
	// Down reports the failure quarantine at the query instant.
	Down bool
}

// SnapshotAll returns the view of every server ever observed or marked
// down, in ascending server order — one lock acquisition, cheap enough
// for the selector and for per-request debug output.
func (e *Estimator) SnapshotAll(now time.Duration) []ServerSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ServerSnapshot, 0, len(e.views))
	for id, v := range e.views {
		s := ServerSnapshot{
			Server:      id,
			Speed:       v.speed,
			Backlog:     v.backlog,
			Calibration: v.cal,
			Known:       v.known,
			Down:        e.downLocked(id, now),
		}
		if s.Calibration <= 0 {
			s.Calibration = 1
		}
		if !v.known {
			s.Speed, s.Backlog = e.cfg.DefaultSpeed, 0
		} else if age := now - v.updatedAt; age > 0 {
			s.Age = age
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

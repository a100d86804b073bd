package core

import (
	"time"

	"github.com/daskv/daskv/internal/sched"
)

// sizeModelGain is the EWMA weight of one observation in the fit.
const sizeModelGain = 0.1

// sizeModelMinWeight is the observation count the model needs before it
// starts predicting. Until then SizedDemand reports not-ready and
// callers keep their static demand heuristic.
const sizeModelMinWeight = 8.0

// sizeModel is the estimator's service-time model: an exponentially
// weighted least-squares fit of service = base + perByte·bytes. Linear
// in payload size is exactly the store's service shape — a hash lookup
// plus a value copy. It keeps the EWMA means of bytes (x) and service
// (y) and the EWMA central moments var(x) and cov(x, y), so every size
// on the wire moves the slope, and one payload size alone leaves it at
// zero: the model then predicts the plain EWMA mean of service.
type sizeModel struct {
	x, y     float64 // EWMA means of payload bytes and speed-normalized service
	vxx, cxy float64 // EWMA variance of x and covariance of x and y
	weight   float64 // observation count, saturating at sizeModelMinWeight
}

func (m *sizeModel) observe(sizeBytes int64, nanos float64) {
	if sizeBytes <= 0 || nanos <= 0 {
		return
	}
	x := float64(sizeBytes)
	if m.weight == 0 {
		m.x, m.y = x, nanos
	} else {
		// West's incremental update: the deviations from the old means
		// weigh the new point, then every moment decays by 1 − gain.
		dx, dy := x-m.x, nanos-m.y
		m.x += sizeModelGain * dx
		m.y += sizeModelGain * dy
		m.vxx = (1 - sizeModelGain) * (m.vxx + sizeModelGain*dx*dx)
		m.cxy = (1 - sizeModelGain) * (m.cxy + sizeModelGain*dx*dy)
	}
	if m.weight < sizeModelMinWeight {
		m.weight++
	}
}

// predict returns the modeled speed-nominal service demand for a
// payload of the given size, or (0, false) before the model has seen
// enough traffic. Neither the slope nor the intercept goes negative:
// service never shrinks as payloads grow, nor falls below zero.
func (m *sizeModel) predict(sizeBytes int64) (time.Duration, bool) {
	if sizeBytes <= 0 || m.weight < sizeModelMinWeight {
		return 0, false
	}
	perByte := 0.0
	if m.vxx > 0 && m.cxy > 0 {
		perByte = m.cxy / m.vxx
	}
	base := max(m.y-perByte*m.x, 0)
	return max(time.Duration(base+perByte*float64(sizeBytes)), 1), true
}

// ObserveSizedService feeds the size model one completed operation: the
// payload size that actually moved (value length written or returned)
// and the service time the server reported. The server's speed estimate
// is factored out, so observations from fast and slow servers train one
// coherent speed-nominal model. Degenerate inputs are ignored.
func (e *Estimator) ObserveSizedService(server sched.ServerID, sizeBytes int64, actual time.Duration) {
	if sizeBytes <= 0 || actual <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	speed := e.cfg.DefaultSpeed
	if v, ok := e.views[server]; ok && v.known && v.speed > 0 {
		speed = v.speed
	}
	e.sizes.observe(sizeBytes, float64(actual)*speed)
}

// SizedDemand predicts the speed-nominal service demand of an operation
// from its payload size, using the learned size model. ok is false
// until the model has seen enough sized traffic; callers then fall back
// to their static demand heuristic. The per-server calibration ratio is
// deliberately not applied here — the tagger composes it on top,
// exactly as it does for heuristic demands.
func (e *Estimator) SizedDemand(sizeBytes int64) (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sizes.predict(sizeBytes)
}

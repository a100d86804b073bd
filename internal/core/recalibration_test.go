package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/daskv/daskv/internal/sched"
)

// TestCalibrationGainValidation asserts the config bounds on the
// recalibration EWMA weight.
func TestCalibrationGainValidation(t *testing.T) {
	cfg := DefaultEstimatorConfig()
	cfg.CalibrationGain = -0.1
	if _, err := NewEstimator(cfg); err == nil {
		t.Fatal("negative CalibrationGain should error")
	}
	cfg.CalibrationGain = 1.5
	if _, err := NewEstimator(cfg); err == nil {
		t.Fatal("CalibrationGain > 1 should error")
	}
	cfg.CalibrationGain = 0 // disabled is valid
	if _, err := NewEstimator(cfg); err != nil {
		t.Fatalf("CalibrationGain 0 rejected: %v", err)
	}
}

// TestRecalibrationConvergesFromMisestimate is the headline property:
// a demand model that is 10x off converges to the true per-server
// ratio from Timing feedback alone.
func TestRecalibrationConvergesFromMisestimate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		predicted time.Duration
		actual    time.Duration
		wantRatio float64
	}{
		{"10x-under", 100 * time.Microsecond, time.Millisecond, 10},
		{"10x-over", time.Millisecond, 100 * time.Microsecond, 0.1},
		{"accurate", time.Millisecond, time.Millisecond, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEstimator(t, DefaultEstimatorConfig())
			for i := 0; i < 64; i++ {
				e.ObserveService(1, tc.predicted, tc.actual)
			}
			got := e.CalibrationRatio(1)
			if got < tc.wantRatio*0.95 || got > tc.wantRatio*1.05 {
				t.Fatalf("ratio = %v after 64 observations, want ~%v", got, tc.wantRatio)
			}
			wantDemand := time.Duration(float64(tc.predicted) * got)
			if got := e.CalibratedDemand(1, tc.predicted); got != wantDemand {
				t.Fatalf("CalibratedDemand = %v, want %v", got, wantDemand)
			}
		})
	}
}

// TestRecalibrationFirstObservationAdopted mirrors the speed EWMA: the
// first observation is adopted outright rather than blended with the
// uninformative prior, so calibration is useful from the first
// response.
func TestRecalibrationFirstObservationAdopted(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	e.ObserveService(1, time.Millisecond, 4*time.Millisecond)
	if got := e.CalibrationRatio(1); got != 4 {
		t.Fatalf("ratio after first observation = %v, want 4 (adopted outright)", got)
	}
}

// TestRecalibrationIgnoresDegenerateInputs asserts robustness to the
// signals a live client must not learn from: shed operations report
// zero service, and a zero predicted demand would divide away the
// signal entirely.
func TestRecalibrationIgnoresDegenerateInputs(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	e.ObserveService(1, 0, time.Millisecond)              // zero predicted
	e.ObserveService(1, time.Millisecond, 0)              // shed: zero service
	e.ObserveService(1, -time.Millisecond, time.Second)   // negative predicted
	e.ObserveService(1, time.Millisecond, -3*time.Second) // negative actual
	if got := e.CalibrationRatio(1); got != 1 {
		t.Fatalf("ratio = %v after degenerate observations, want untouched 1", got)
	}
	if got := e.CalibratedDemand(1, time.Millisecond); got != time.Millisecond {
		t.Fatalf("CalibratedDemand = %v, want identity", got)
	}
}

// TestRecalibrationDisabledByZeroGain asserts the off switch: with
// CalibrationGain 0 observations never move the ratio.
func TestRecalibrationDisabledByZeroGain(t *testing.T) {
	cfg := DefaultEstimatorConfig()
	cfg.CalibrationGain = 0
	e := mustEstimator(t, cfg)
	for i := 0; i < 16; i++ {
		e.ObserveService(1, time.Millisecond, 10*time.Millisecond)
	}
	if got := e.CalibrationRatio(1); got != 1 {
		t.Fatalf("ratio = %v with gain 0, want 1", got)
	}
}

// TestRecalibrationClampsOutliers asserts one wild observation (a GC
// pause, a cold cache miss) cannot blow the ratio past the clamp.
func TestRecalibrationClampsOutliers(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	for i := 0; i < 256; i++ {
		e.ObserveService(1, time.Microsecond, time.Hour)
	}
	if got := e.CalibrationRatio(1); got > calClamp {
		t.Fatalf("ratio = %v, clamp is %v", got, calClamp)
	}
	e2 := mustEstimator(t, DefaultEstimatorConfig())
	for i := 0; i < 256; i++ {
		e2.ObserveService(1, time.Hour, time.Microsecond)
	}
	if got := e2.CalibrationRatio(1); got < 1/calClamp {
		t.Fatalf("ratio = %v, floor is %v", got, 1/calClamp)
	}
}

// TestRecalibrationFactorsOutSpeed asserts speed and calibration
// compose without double-counting: on a server known to run at half
// speed, an actual service of 2x the predicted demand is exactly the
// speed deficit — the demand model is right and the ratio must stay 1.
func TestRecalibrationFactorsOutSpeed(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	e.Observe(Feedback{Server: 1, Speed: 0.5, At: time.Second})
	for i := 0; i < 32; i++ {
		e.ObserveService(1, time.Millisecond, 2*time.Millisecond)
	}
	if got := e.CalibrationRatio(1); got != 1 {
		t.Fatalf("ratio = %v on a half-speed server with accurate demands, want 1", got)
	}
}

// TestRecalibrationPerServer asserts ratios are independent across
// servers — one slow disk does not inflate every server's demands.
func TestRecalibrationPerServer(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	for i := 0; i < 32; i++ {
		e.ObserveService(1, time.Millisecond, 5*time.Millisecond)
	}
	if got := e.CalibrationRatio(2); got != 1 {
		t.Fatalf("server 2 ratio = %v, want unaffected 1", got)
	}
	if got := e.CalibrationRatio(1); got < 4 {
		t.Fatalf("server 1 ratio = %v, want ~5", got)
	}
}

// TestTagFeedbackLoopIsContraction closes the live demand loop in
// process: the estimator's size model tags each op, a model server
// serves it, measures its speed as nominal cost over elapsed time (the
// server's rule) and answers with that speed and the service time, and
// the client feeds both back. Whatever the stationary service
// distribution, tags must track service — mean |tag − service| below
// mean service — and must not drift: the second half's error is no
// larger than the first half's. Two tags are scored: the scaled demand
// DAS orders by, and the raw demand the wire carries, which the
// server's tag-error metric reads. A speed derived from the client's
// own tag makes the two sides feed each other, and the raw tag's error
// then runs to between 4x and 1000x the mean service within these
// 10,000 ops.
func TestTagFeedbackLoopIsContraction(t *testing.T) {
	const perByte = time.Microsecond
	for _, tc := range []struct {
		name string
		size func(*rand.Rand) int64
	}{
		{"constant", func(*rand.Rand) int64 { return 2000 }},
		{"bimodal-1ms-8ms", func(r *rand.Rand) int64 {
			if r.IntN(10) == 0 {
				return 8000
			}
			return 1000
		}},
		{"lognormal", func(r *rand.Rand) int64 {
			return max(int64(math.Exp(math.Log(2000)+0.8*r.NormFloat64())), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est := mustEstimator(t, DefaultEstimatorConfig())
			rng := rand.New(rand.NewPCG(7, 11))
			// Two model servers, one at half speed; each starts its speed
			// estimate at its SpeedFactor, as kv.Server does.
			factor := []float64{1, 0.5}
			speed := []float64{1, 0.5}
			const n = 10_000
			// Per half of the run: summed |scaled tag − service|,
			// |wire tag − service| and service.
			var scaledErr, wireErr, svc [2]float64
			for i := 0; i < n; i++ {
				srv := rng.IntN(2)
				size := tc.size(rng)
				demand, ok := est.SizedDemand(size)
				if !ok {
					demand = 100 * time.Microsecond // a static heuristic, deliberately wrong
				}
				now := time.Duration(i) * time.Millisecond
				op := &sched.Op{Server: sched.ServerID(srv), Demand: demand}
				Tag([]*sched.Op{op}, est, now)

				// The server sleeps nominal/factor on a timer that
				// overshoots by up to 1 ms, as a coarse host timer does,
				// then applies its speed rule.
				nominal := time.Duration(size) * perByte
				elapsed := time.Duration(float64(nominal)/factor[srv] + rng.Float64()*float64(time.Millisecond))
				speed[srv] += 0.2 * (float64(nominal)/float64(elapsed) - speed[srv])

				est.Observe(Feedback{Server: sched.ServerID(srv), Speed: speed[srv], At: now})
				est.ObserveService(sched.ServerID(srv), demand, elapsed)
				est.ObserveSizedService(sched.ServerID(srv), size, elapsed)

				half := 2 * i / n
				scaledErr[half] += math.Abs(float64(op.Tags.ScaledDemand - elapsed))
				wireErr[half] += math.Abs(float64(demand - elapsed))
				svc[half] += float64(elapsed)
			}
			meanSvc := time.Duration((svc[0] + svc[1]) / n)
			for _, tag := range []struct {
				name string
				err  [2]float64
			}{{"scaled", scaledErr}, {"wire", wireErr}} {
				if mean := time.Duration((tag.err[0] + tag.err[1]) / n); mean >= meanSvc {
					t.Errorf("%s tag: mean |tag − service| = %v, not below mean service %v", tag.name, mean, meanSvc)
				}
			}
			if scaledErr[1] > scaledErr[0] {
				t.Errorf("scaled tag error grew: first half %v, second half %v per op",
					time.Duration(scaledErr[0]/(n/2)), time.Duration(scaledErr[1]/(n/2)))
			}
		})
	}
}

// TestSnapshotAllReportsCalibration asserts the observability surface:
// the per-server snapshot carries the live calibration ratio.
func TestSnapshotAllReportsCalibration(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	e.Observe(Feedback{Server: 1, Speed: 1, At: time.Second})
	e.ObserveService(1, time.Millisecond, 3*time.Millisecond)
	snaps := e.SnapshotAll(2 * time.Second)
	found := false
	for _, s := range snaps {
		if s.Server == sched.ServerID(1) {
			found = true
			if s.Calibration != 3 {
				t.Fatalf("snapshot calibration = %v, want 3", s.Calibration)
			}
		}
	}
	if !found {
		t.Fatal("server 1 missing from snapshot")
	}
}

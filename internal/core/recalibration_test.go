package core

import (
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

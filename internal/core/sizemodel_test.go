package core

import (
	"math/rand/v2"
	"testing"
	"time"
)

// TestSizeModelRecoversMix asserts the least-squares fit tells short
// work from long on the regime DAS exists for: a 90/10 mix of 1 KiB and
// 8 KiB payloads priced at 1 µs/byte with ±5 % noise. Both sizes must
// be predicted within 10 % at every point once the fit has warmed up,
// not only on average — a tag is read on every dispatch.
func TestSizeModelRecoversMix(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	rng := rand.New(rand.NewPCG(1, 2))
	const small, large = 1 << 10, 8 << 10
	for i := 0; i < 20_000; i++ {
		size := int64(small)
		if rng.IntN(10) == 0 {
			size = large
		}
		noise := 1 + 0.1*(rng.Float64()-0.5)
		e.ObserveSizedService(1, size, time.Duration(float64(size)*float64(time.Microsecond)*noise))
		if i < 200 {
			continue
		}
		for _, s := range []int64{small, large} {
			got, ok := e.SizedDemand(s)
			want := time.Duration(s) * time.Microsecond
			if !ok || got < want*9/10 || got > want*11/10 {
				t.Fatalf("step %d: SizedDemand(%d) = %v, %v; want %v ± 10%%", i, s, got, ok, want)
			}
		}
	}
}

// TestSizeModelSingleSizeIsEWMA asserts that one payload size alone
// leaves no slope to fit: the model predicts exactly the EWMA mean of
// service — first observation adopted, then gain-weighted — step for
// step, bit for bit.
func TestSizeModelSingleSizeIsEWMA(t *testing.T) {
	for _, size := range []int64{64, 256, 60_000} {
		e := mustEstimator(t, DefaultEstimatorConfig())
		rng := rand.New(rand.NewPCG(uint64(size), 3))
		var mean float64
		for i := 0; i < 200_000; i++ {
			actual := time.Duration(1_000 + rng.IntN(2_000_000))
			if i == 0 {
				mean = float64(actual)
			} else {
				mean += sizeModelGain * (float64(actual) - mean)
			}
			e.ObserveSizedService(1, size, actual)
			if i+1 < sizeModelMinWeight {
				continue
			}
			if got, ok := e.SizedDemand(size); !ok || got != time.Duration(mean) {
				t.Fatalf("size %d step %d: SizedDemand = %v, %v; want EWMA mean %v", size, i, got, ok, time.Duration(mean))
			}
		}
	}
}

// TestSizeModelNotReadyBeforeMinWeight asserts callers keep their
// static heuristic until the fit has seen sizeModelMinWeight points.
func TestSizeModelNotReadyBeforeMinWeight(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	for i := 1; i <= sizeModelMinWeight; i++ {
		if _, ok := e.SizedDemand(1024); ok {
			t.Fatalf("model ready after %d observations, want %v", i-1, sizeModelMinWeight)
		}
		e.ObserveSizedService(1, 1024, time.Millisecond)
	}
	if d, ok := e.SizedDemand(1024); !ok || d != time.Millisecond {
		t.Fatalf("SizedDemand after %v observations = %v, %v; want 1ms, true", sizeModelMinWeight, d, ok)
	}
}

// TestSizeModelIgnoresDegenerateInputs asserts zero and negative sizes
// or service times teach nothing, and a non-positive size is never
// priced.
func TestSizeModelIgnoresDegenerateInputs(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	for i := 0; i < 32; i++ {
		e.ObserveSizedService(1, 0, time.Millisecond)
		e.ObserveSizedService(1, -1024, time.Millisecond)
		e.ObserveSizedService(1, 1024, 0)
		e.ObserveSizedService(1, 1024, -time.Millisecond)
	}
	if d, ok := e.SizedDemand(1024); ok {
		t.Fatalf("model ready after only degenerate observations: %v", d)
	}
	for i := 0; i < 16; i++ {
		e.ObserveSizedService(1, 1024, time.Millisecond)
	}
	for _, size := range []int64{0, -1} {
		if d, ok := e.SizedDemand(size); ok {
			t.Fatalf("SizedDemand(%d) = %v, want not ok", size, d)
		}
	}
}

// TestSizeModelClampsNegativeSlope asserts a decreasing size/time
// relation (noise, or a cache that favors big values) fits no negative
// per-byte cost: every size is priced at the mean service.
func TestSizeModelClampsNegativeSlope(t *testing.T) {
	e := mustEstimator(t, DefaultEstimatorConfig())
	for i := 0; i < 64; i++ {
		e.ObserveSizedService(1, 1<<10, 8*time.Millisecond)
		e.ObserveSizedService(1, 8<<10, time.Millisecond)
	}
	small, ok1 := e.SizedDemand(1 << 10)
	large, ok2 := e.SizedDemand(1 << 20)
	if !ok1 || !ok2 || small != large {
		t.Fatalf("SizedDemand 1KiB = %v, 1MiB = %v; want equal (slope clamped at 0)", small, large)
	}
	if small < time.Millisecond || small > 8*time.Millisecond {
		t.Fatalf("clamped prediction %v outside the observed service range", small)
	}
}

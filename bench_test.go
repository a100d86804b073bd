// Benchmarks mirroring the paper's evaluation: one testing.B target per
// reconstructed table/figure (E1-E11 and E13-E20, see DESIGN.md), plus
// per-policy scheduling micro-benchmarks. Each iteration executes a
// reduced-scale version of the experiment; `cmd/dasbench` runs the
// full-scale tables.
package daskv_test

import (
	"io"
	"testing"
	"time"

	daskv "github.com/daskv/daskv"
	"github.com/daskv/daskv/internal/bench"
	"github.com/daskv/daskv/internal/dist"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/workload"
)

// benchParams is the reduced scale used per benchmark iteration.
func benchParams() bench.Params {
	return bench.Params{
		Servers:  8,
		Requests: 4000,
		Seeds:    1,
		Seed:     1,
		Live:     800 * time.Millisecond,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkE1DefaultSummary regenerates the default-scenario table.
func BenchmarkE1DefaultSummary(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2LoadSweep regenerates the mean-RCT-vs-load figure.
func BenchmarkE2LoadSweep(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3TailSweep regenerates the p99-vs-load figure.
func BenchmarkE3TailSweep(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4CDF regenerates the RCT CDF figure.
func BenchmarkE4CDF(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5FanoutSweep regenerates the request-width figure.
func BenchmarkE5FanoutSweep(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6DemandDists regenerates the traffic-pattern figure.
func BenchmarkE6DemandDists(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7SkewSweep regenerates the hot-partition figure.
func BenchmarkE7SkewSweep(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8Heterogeneous regenerates the slow-server figure.
func BenchmarkE8Heterogeneous(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9TimeVarying regenerates the adaptivity-over-time figure.
func BenchmarkE9TimeVarying(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Ablation regenerates the design-choice ablation.
func BenchmarkE10Ablation(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11PolicyOverhead measures per-operation scheduling cost
// (push+pop) at a steady queue depth, per policy — the deployability
// table, here with allocation counts via -benchmem.
func BenchmarkE11PolicyOverhead(b *testing.B) {
	policies := []struct {
		name    string
		factory daskv.PolicyFactory
	}{
		{"FCFS", daskv.FCFS},
		{"SJF", daskv.SJF},
		{"ReinSBF", daskv.ReinSBF},
		{"ReinML", daskv.ReinML(2 * time.Millisecond)},
		{"DAS", daskv.DASFactory(daskv.DefaultDASOptions())},
	}
	for _, pc := range policies {
		for _, depth := range []int{16, 1024, 65536} {
			b.Run(pc.name+"/depth="+itoa(depth), func(b *testing.B) {
				q := pc.factory(1)
				for i := 0; i < depth; i++ {
					q.Push(newBenchOp(i), time.Duration(i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := q.Pop(time.Duration(i))
					q.Push(op, time.Duration(i))
				}
			})
		}
	}
}

// BenchmarkE13Optimality regenerates the optimality-gap comparison.
func BenchmarkE13Optimality(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkSimulatorThroughput measures raw simulator speed in
// requests simulated per second — the substrate cost.
func BenchmarkSimulatorThroughput(b *testing.B) {
	fanout := dist.UniformInt{Lo: 1, Hi: 7}
	demand := dist.Exponential{M: time.Millisecond}
	rate, err := workload.RateForLoad(0.7, 8, 1.0, fanout.Mean(), demand.Mean())
	if err != nil {
		b.Fatal(err)
	}
	const requests = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := daskv.RunSim(daskv.SimConfig{
			Servers:  8,
			Policy:   daskv.DASFactory(daskv.DefaultDASOptions()),
			Adaptive: true,
			Workload: daskv.WorkloadConfig{
				Keys: 50000, KeySkew: 0.9, Fanout: fanout, Demand: demand, RatePerSec: rate,
			},
			Requests: requests,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkTagRequest measures the client-side tagging cost per
// multiget, the other hot path DAS adds.
func BenchmarkTagRequest(b *testing.B) {
	est, err := daskv.NewEstimator(daskv.DefaultEstimatorConfig())
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		est.Observe(daskv.Feedback{
			Server: daskv.ServerID(s), QueueLen: 10,
			Backlog: 5 * time.Millisecond, Speed: 1, At: 0,
		})
	}
	ops := make([]*daskv.Op, 8)
	for i := range ops {
		ops[i] = &daskv.Op{
			Server: daskv.ServerID(i * 2),
			Demand: time.Duration(i+1) * time.Millisecond,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		daskv.TagRequest(ops, est, time.Duration(i))
	}
}

func newBenchOp(i int) *sched.Op {
	d := time.Duration(1+i%7) * time.Millisecond
	return &sched.Op{
		Request: sched.RequestID(i),
		Demand:  d,
		Tags: sched.Tags{
			DemandBottleneck: d * 2,
			ScaledDemand:     d,
			RemainingTime:    d * 2,
			ExpectedFinish:   time.Duration(i) * time.Microsecond,
			RequestFinish:    time.Duration(i)*time.Microsecond + d,
			Fanout:           4,
		},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkE14ScaleSweep regenerates the cluster-size sweep.
func BenchmarkE14ScaleSweep(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15Presets regenerates the workload-preset comparison.
func BenchmarkE15Presets(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkE16TheoryValidation regenerates the substrate validation.
func BenchmarkE16TheoryValidation(b *testing.B) { runExperiment(b, "E16") }

// BenchmarkE17Hedging regenerates the hedging/routing comparison.
func BenchmarkE17Hedging(b *testing.B) { runExperiment(b, "E17") }

// BenchmarkE18Preemption regenerates the preemption ablation.
func BenchmarkE18Preemption(b *testing.B) { runExperiment(b, "E18") }

// BenchmarkE19Chaos runs the crash/restart resilience experiment
// (shortened live run).
func BenchmarkE19Chaos(b *testing.B) { runExperiment(b, "E19") }

// BenchmarkE20Replication runs the replica-selection sweep and the live
// crash-masking comparison (shortened live run).
func BenchmarkE20Replication(b *testing.B) { runExperiment(b, "E20") }

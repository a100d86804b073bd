// Package bench is the evaluation harness: one experiment per
// reconstructed table/figure of the paper (see DESIGN.md for the
// mapping). Each experiment runs the simulator (or the live store, for
// E19 and E20) across policies and prints the table the paper would plot.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/dist"
	"github.com/daskv/daskv/internal/metrics"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/sim"
	"github.com/daskv/daskv/internal/workload"
)

// Params scales experiments: larger Requests tightens confidence at the
// cost of wall time.
type Params struct {
	// Servers is the cluster size (default 16).
	Servers int
	// Requests per simulation run (default 30000).
	Requests int
	// Seeds is how many independent runs are averaged (default 3).
	Seeds int
	// Seed is the base RNG seed (default 1).
	Seed uint64
	// Live is the wall-clock duration of each live-store run in the
	// chaos (E19) and replication (E20) experiments (default 6s).
	Live time.Duration
}

func (p Params) withDefaults() Params {
	if p.Servers <= 0 {
		p.Servers = 16
	}
	if p.Requests <= 0 {
		p.Requests = 30000
	}
	if p.Seeds <= 0 {
		p.Seeds = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Live <= 0 {
		p.Live = 6 * time.Second
	}
	return p
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title names the paper artifact it reconstructs.
	Title string
	// Run executes the experiment and writes its table to w.
	Run func(p Params, w io.Writer) error
}

// All returns every experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Default-scenario summary (Table 1)", Run: runE1},
		{ID: "E2", Title: "Mean RCT vs load (Fig: load sweep)", Run: runE2},
		{ID: "E3", Title: "p99 RCT vs load (Fig: tail sweep)", Run: runE3},
		{ID: "E4", Title: "RCT CDF at load 0.8 (Fig: CDF)", Run: runE4},
		{ID: "E5", Title: "Mean RCT vs fan-out (Fig: request width)", Run: runE5},
		{ID: "E6", Title: "Demand distributions (Fig: traffic patterns)", Run: runE6},
		{ID: "E7", Title: "Key-popularity skew (Fig: hot partitions)", Run: runE7},
		{ID: "E8", Title: "Heterogeneous server speeds (Fig: adaptivity)", Run: runE8},
		{ID: "E9", Title: "Time-varying load and speed (Fig: adaptivity over time)", Run: runE9},
		{ID: "E10", Title: "DAS ablation (design choices)", Run: runE10},
		{ID: "E11", Title: "Scheduling overhead (Table: ns/op)", Run: runE11},
		{ID: "E13", Title: "Distance to optimal / centralized information", Run: runE13},
		{ID: "E14", Title: "Cluster-size scaling", Run: runE14},
		{ID: "E15", Title: "Workload presets", Run: runE15},
		{ID: "E16", Title: "Simulator validation vs queueing theory", Run: runE16},
		{ID: "E17", Title: "Scheduling vs hedging vs replica selection", Run: runE17},
		{ID: "E18", Title: "Preemption ablation", Run: runE18},
		{ID: "E19", Title: "Chaos resilience: crash/restart under load (extension)", Run: runE19},
		{ID: "E20", Title: "Replication: adaptive replica selection and crash masking (extension)", Run: runE20},
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

func idOrder(id string) int {
	var n int
	_, _ = fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared workload/scenario builders --------------------------------

// defaultFanout is the multiget-width distribution used unless an
// experiment sweeps it: Zipf-shaped widths 1..20 (mean ~5.5), the
// social-graph profile the Rein literature reports.
func defaultFanout() dist.Discrete {
	f, err := dist.NewZipfInt(20, 1.0)
	if err != nil {
		// Parameters are constants; this cannot fail, but stay total.
		return dist.UniformInt{Lo: 1, Hi: 10}
	}
	return f
}

// defaultDemand is the per-op service demand unless swept.
func defaultDemand() dist.Duration { return dist.Exponential{M: time.Millisecond} }

// scenario bundles everything needed to run one policy at one load.
type scenario struct {
	p        Params
	rho      float64
	fanout   dist.Discrete
	demand   dist.Duration
	keySkew  float64
	profile  dist.LoadProfile
	speedFor func(sched.ServerID) sim.SpeedProfile
	series   time.Duration
	// meanSpeed is the cluster-average speed for load calibration.
	meanSpeed float64
}

func defaultScenario(p Params, rho float64) scenario {
	return scenario{
		p:         p,
		rho:       rho,
		fanout:    defaultFanout(),
		demand:    defaultDemand(),
		keySkew:   0.9,
		meanSpeed: 1.0,
	}
}

// policyChoice names a (factory, tagging-mode) pair.
type policyChoice struct {
	name     string
	factory  sched.Factory
	adaptive bool
}

// standardPolicies is the comparison set used by most experiments.
func standardPolicies() []policyChoice {
	return []policyChoice{
		{name: "FCFS", factory: sched.FCFSFactory},
		{name: "SJF", factory: sched.SJFFactory},
		{name: "Rein-SBF", factory: sched.ReinSBFFactory},
		{name: "Rein-ML", factory: sched.ReinMLFactory(2 * time.Millisecond)},
		{name: "DAS", factory: core.Factory(core.DefaultOptions()), adaptive: true},
	}
}

// corePolicies is the smaller set for expensive sweeps.
func corePolicies() []policyChoice {
	return []policyChoice{
		{name: "FCFS", factory: sched.FCFSFactory},
		{name: "Rein-SBF", factory: sched.ReinSBFFactory},
		{name: "DAS", factory: core.Factory(core.DefaultOptions()), adaptive: true},
	}
}

// aggregate is seed-averaged run output.
type aggregate struct {
	mean, p50, p95, p99 time.Duration
	meanQueue           float64
	series              []seriesPoint
	cdf                 []cdfPoint
}

type seriesPoint struct {
	start time.Duration
	mean  time.Duration
}

type cdfPoint struct {
	fraction float64
	value    time.Duration
}

// run executes one policy under a scenario, averaged over seeds.
func (sc scenario) run(pc policyChoice) (aggregate, error) {
	return sc.runWith(pc, false)
}

// runWith executes one policy, optionally with oracle tagging.
func (sc scenario) runWith(pc policyChoice, oracle bool) (aggregate, error) {
	var agg aggregate
	rate, err := workload.RateForLoad(sc.rho, sc.p.Servers, sc.meanSpeed, sc.fanout.Mean(), sc.demand.Mean())
	if err != nil {
		return agg, fmt.Errorf("bench: %w", err)
	}
	// Warm up for 1s, but never for more than a fifth of the run —
	// fast workloads (sub-ms ops at high rate) finish in well under a
	// second of simulated time.
	warmup := time.Second
	if expected := time.Duration(float64(sc.p.Requests) / rate * float64(time.Second)); warmup > expected/5 {
		warmup = expected / 5
	}
	var cdfAccum [][]cdfPoint
	seriesSum := map[time.Duration]struct {
		sum time.Duration
		n   int
	}{}
	for s := 0; s < sc.p.Seeds; s++ {
		cfg := sim.Config{
			Servers:  sc.p.Servers,
			Policy:   pc.factory,
			Adaptive: pc.adaptive,
			Oracle:   oracle,
			SpeedFor: sc.speedFor,
			Workload: workload.Config{
				Keys:       100_000,
				KeySkew:    sc.keySkew,
				Fanout:     sc.fanout,
				Demand:     sc.demand,
				RatePerSec: rate,
				Profile:    sc.profile,
			},
			Requests:     sc.p.Requests,
			Warmup:       warmup,
			Seed:         sc.p.Seed + uint64(s)*1000003,
			SeriesWindow: sc.series,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return agg, fmt.Errorf("bench: %s: %w", pc.name, err)
		}
		agg.mean += res.RCT.Mean() / time.Duration(sc.p.Seeds)
		agg.p50 += res.RCT.P50() / time.Duration(sc.p.Seeds)
		agg.p95 += res.RCT.P95() / time.Duration(sc.p.Seeds)
		agg.p99 += res.RCT.P99() / time.Duration(sc.p.Seeds)
		agg.meanQueue += res.MeanQueueLen / float64(sc.p.Seeds)
		if sc.series > 0 && res.Series != nil {
			for _, pt := range res.Series.Points() {
				e := seriesSum[pt.Start]
				e.sum += pt.Mean
				e.n++
				seriesSum[pt.Start] = e
			}
		}
		if s == 0 {
			cdfAccum = append(cdfAccum, toCDF(res.RCT.CDF(21)))
		}
	}
	if len(cdfAccum) > 0 {
		agg.cdf = cdfAccum[0]
	}
	if sc.series > 0 {
		starts := make([]time.Duration, 0, len(seriesSum))
		for st := range seriesSum {
			starts = append(starts, st)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for _, st := range starts {
			e := seriesSum[st]
			agg.series = append(agg.series, seriesPoint{start: st, mean: e.sum / time.Duration(e.n)})
		}
	}
	return agg, nil
}

func toCDF(points []metrics.CDFPoint) []cdfPoint {
	out := make([]cdfPoint, len(points))
	for i, p := range points {
		out[i] = cdfPoint{fraction: p.Fraction, value: p.Value}
	}
	return out
}

// --- formatting helpers ------------------------------------------------

func header(w io.Writer, id, title, note string) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
	if note != "" {
		fmt.Fprintf(w, "%s\n", note)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// gain formats the relative reduction of b versus a ("x% better").
func gain(base, v time.Duration) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (1-float64(v)/float64(base))*100)
}

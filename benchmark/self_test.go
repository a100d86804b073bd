package main

import (
	"math"
	"math/rand/v2"
	"regexp"
	"slices"
	"testing"
	"time"
)

// scaled shrinks a workload's keyspace so that it boots in milliseconds.
func (s spec) scaled(keys int) spec {
	s.keys = min(s.keys, keys)
	return s
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range workloads() {
		s = s.scaled(2000)
		z := newZipf(s.keys, s.zipf)
		draw := func(seed uint64) (out []request) {
			g := newGenerator(s, z, seed, 1, 2)
			for i := 0; i < 500; i++ {
				var r request
				g.next(&r)
				out = append(out, r)
			}
			return out
		}
		same := func(a, b []request) bool {
			return slices.EqualFunc(a, b, func(x, y request) bool { return x.put == y.put && slices.Equal(x.keys, y.keys) })
		}
		if !same(draw(7), draw(7)) {
			t.Errorf("%s: the same seed drew different requests", s.name)
		}
		if same(draw(7), draw(8)) {
			t.Errorf("%s: different seeds drew the same requests", s.name)
		}
		for _, r := range draw(7) {
			if !r.put && (len(r.keys) < s.fanLo || len(r.keys) > s.fanHi) {
				t.Fatalf("%s: fan-out %d outside [%d, %d]", s.name, len(r.keys), s.fanLo, s.fanHi)
			}
			if r.put && int(r.keys[0])%2 != 1 {
				t.Fatalf("%s: caller 1 of 2 wrote key %d, which belongs to caller 0", s.name, r.keys[0])
			}
		}
		if s.closedLoop() {
			continue
		}
		a, b := newSchedule(s, z, 7, time.Second), newSchedule(s, z, 7, time.Second)
		if !slices.Equal(a.at, b.at) || !same(a.reqs, b.reqs) {
			t.Errorf("%s: the same seed drew different schedules", s.name)
		}
		if n := float64(len(a.at)); math.Abs(n-s.rate) > 5*math.Sqrt(s.rate) {
			t.Errorf("%s: %v arrivals in one second at rate %v", s.name, n, s.rate)
		}
		if !slices.IsSorted(a.at) {
			t.Errorf("%s: arrivals out of order", s.name)
		}
	}
}

func TestKeyspaceContent(t *testing.T) {
	s, _ := workloadByName("sched-heavytail")
	ks := newKeyspace(s)
	big := 0
	for i, name := range ks.names {
		if ks.index(name) != i {
			t.Fatalf("index(%q) = %d, want %d", name, ks.index(name), i)
		}
		if int(ks.sizes[i]) == s.bigBytes {
			big++
		}
	}
	if big != s.keys/s.bigEvery {
		t.Errorf("%d of %d keys are big, want one in %d", big, s.keys, s.bigEvery)
	}
	v := ks.fill(nil, 17, 5)
	if got, ok := ks.check(v, 17); !ok || got != 5 {
		t.Errorf("check(fill(17, v5)) = %d, %v", got, ok)
	}
	if _, ok := ks.check(v, 18); ok {
		t.Error("content of key 17 passed as key 18")
	}
	v[len(v)-1]++
	if _, ok := ks.check(v, 17); ok {
		t.Error("a flipped byte passed the check")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, theta := range []float64{0.6, 0.99} {
		z := newZipf(1000, theta)
		counts := make([]int, 1000)
		const n = 200_000
		for i := 0; i < n; i++ {
			r := z.draw(rng)
			if r < 0 || r >= 1000 {
				t.Fatalf("theta %v: rank %d out of range", theta, r)
			}
			counts[r]++
		}
		want := float64(n) / z.zetan // expected draws of rank 0
		if got := float64(counts[0]); math.Abs(got-want) > 0.1*want {
			t.Errorf("theta %v: rank 0 drawn %v times, want about %.0f", theta, got, want)
		}
		if counts[0] <= counts[10] || counts[10] <= counts[500] {
			t.Errorf("theta %v: popularity does not fall with rank: %d, %d, %d", theta, counts[0], counts[10], counts[500])
		}
	}
}

func TestQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	for _, n := range []int{1, 9, 10, 999, 1000, 5003} {
		s := newSamples(0)
		oracle := make([]time.Duration, n)
		for i := range oracle {
			oracle[i] = time.Duration(rng.IntN(1_000_000))
			s.add(oracle[i])
		}
		slices.Sort(oracle)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, supported := s.quantile(q)
			rank := max(int(math.Ceil(q*float64(n))), 1)
			if got != oracle[rank-1] {
				t.Errorf("n=%d q=%v: got %v, oracle %v", n, q, got, oracle[rank-1])
			}
			if want := n-rank >= 10; supported != want {
				t.Errorf("n=%d q=%v: supported=%v with %d samples beyond", n, q, supported, n-rank)
			}
		}
	}
	// The rule at its edge: p99 needs a thousand samples.
	s := newSamples(0)
	for i := 0; i < 999; i++ {
		s.add(time.Duration(i))
	}
	if _, ok := s.quantile(0.99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	s.add(999)
	if _, ok := s.quantile(0.99); !ok {
		t.Error("p99 of 1000 samples reported as unsupported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, %v", q1, med, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 30}, {Start: 70, End: 80}}, 70},
		{"overlapping counted once", []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 80}}, 50},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"clipped to the parent", []span{{Start: -50, End: 10}, {Start: 90, End: 500}}, 80},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "rct_mean_ms", better: "lower", bound: 0.07}
	higher := metricDef{name: "throughput_rps", better: "higher", bound: 0.07}
	fail := metricDef{name: "fail_ratio", better: "lower", bound: zeroBound}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change summary
		want           string
	}{
		{"latency unchanged", lower, tight(10), tight(10.5), verdictOK},
		{"latency better", lower, tight(10), tight(5), verdictOK},
		{"latency worse than the bound", lower, tight(10), tight(10.8), verdictRegressed},
		{"throughput down inside the bound", higher, tight(1000), tight(950), verdictOK},
		{"throughput down beyond the bound", higher, tight(1000), tight(900), verdictRegressed},
		{"throughput up", higher, tight(1000), tight(2000), verdictOK},
		{"parent too noisy to tell", lower, summary{Median: 10, Q1: 9, Q3: 11}, tight(10), verdictUnresolved},
		{"no failures either side", fail, summary{}, summary{}, verdictOK},
		{"any new failure regresses", fail, summary{}, summary{Median: 1e-6, Q1: 1e-6, Q3: 1e-6}, verdictRegressed},
	} {
		if _, got := judge(tc.d, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareCountsRegressions(t *testing.T) {
	set := func(rps float64) *resultSet {
		return &resultSet{Workloads: map[string]*workloadResult{
			"get-point": {EndToEnd: map[string]summary{
				"throughput_rps": {Unit: "1/s", Median: rps, Q1: rps, Q3: rps},
				"rct_p50_ms":     {Unit: "ms", Median: 1, Q1: 1, Q3: 1},
			}},
		}}
	}
	var sink discard
	if n := compare(&sink, set(1000), set(1000)); n != 0 {
		t.Errorf("identical sets: %d regressed", n)
	}
	if n := compare(&sink, set(1000), set(500)); n != 1 {
		t.Errorf("halved throughput: %d regressed, want 1", n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// The contract BENCHMARK.json must meet to be accepted at all.
func TestManifestMeetsTheContract(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.disagreements() {
		t.Error(d)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, mm := range append(slices.Clone(m.EndToEnd), m.PerLayer...) {
		checkName(mm.Name)
		if !unit.MatchString(mm.Unit) {
			t.Errorf("%s: unit %q is outside the contract", mm.Name, mm.Unit)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("%s: better is %q", mm.Name, mm.Better)
		}
	}
	for _, mm := range m.EndToEnd {
		if mm.Bound <= 0 || mm.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", mm.Name, mm.Bound)
		}
		if mm.Name == "setup_s" {
			setup = mm.Unit == "s" && mm.Better == "lower"
			for _, other := range m.EndToEnd {
				if other.Bound > mm.Bound {
					t.Errorf("%s has a larger bound than setup_s", other.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	// 4 + 22 per workload runs, each with set-up, warm-up and checks,
	// and two builds, inside 3420 s.
	runs := 4 + 22*len(m.Workloads)
	window := time.Duration(m.RunSeconds) * time.Second
	perRun := window + warmupFor(window) + 8*time.Second
	if total := time.Duration(runs)*perRun + 2*time.Minute; total > 3420*time.Second {
		t.Errorf("%d runs of about %v do not fit in 3420 s (%v)", runs, perRun, total)
	}
}

// Every workload, untraced and traced, on a keyspace small enough to
// boot in milliseconds: no value read is wrong, nothing acknowledged is
// lost across a restart, and every name the manifest lists is reported.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	host := hostInfo{CPUs: 1}
	for _, s := range workloads() {
		s := s.scaled(400)
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			rs := &resultSet{Workloads: map[string]*workloadResult{}}
			wr := &workloadResult{}
			for _, traced := range []bool{false, true} {
				res, err := runOne(s, runOpts{
					seed: 5, seconds: 200 * time.Millisecond, warmup: 40 * time.Millisecond,
					traced: traced, workdir: t.TempDir(), host: host, replay: 300,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d", traced, res.Attempted, res.Failed)
				}
				wr.Runs = append(wr.Runs, res)
			}
			wr.summarise(s.name)
			rs.Workloads[s.name] = wr
			for _, miss := range m.missing(rs) {
				if len(miss) > len(s.name) && miss[:len(s.name)] == s.name {
					t.Error(miss)
				}
			}
			if _, ok := wr.EndToEnd["throughput_rps"]; !ok {
				t.Error("no throughput in the summary")
			}
			if _, ok := wr.EndToEnd["put_p50_ms"]; ok != (s.name == "mixed-durable") {
				t.Errorf("put_p50_ms summarised: %v", ok)
			}
		})
	}
}

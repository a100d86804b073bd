// Command benchmark is the repository's performance ruler: it boots real
// kv.Servers on loopback TCP in this process, drives them through one
// shared kv.Client with four named workloads, checks every value read,
// and reports the end-to-end and per-layer metrics BENCHMARK.json names.
// README.md is the glossary.
//
// Three ways to run it:
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, one JSON line (the driver's protocol)
//	benchmark [-runs N] [-out set.json] [-spans f] [-smoke]  every workload, untraced and traced, with medians
//	benchmark -compare parent.json change.json               verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		workload    = flag.String("workload", "", "run only this workload (default: all four)")
		seed        = flag.Uint64("seed", 1, "seed of key draws, fan-outs and arrival times")
		seconds     = flag.Float64("seconds", 22, "length of the measured window")
		trace       = flag.Int("trace", -1, "0 or 1: make one run with client tracing off or on and print one JSON line")
		runs        = flag.Int("runs", 5, "runs per workload whose median and quartiles are recorded")
		out         = flag.String("out", "", "write the result set (or, with -trace, the run's full result) as JSON to this file")
		spansPath   = flag.String("spans", "", "dump the (last) traced run's spans as JSON lines to this file")
		smoke       = flag.Bool("smoke", false, "one 2 s run of every workload, untraced and traced, checked against the manifest")
		doCompare   = flag.Bool("compare", false, "compare two result sets: -compare parent.json change.json")
		manifestAt  = flag.String("manifest", "BENCHMARK.json", "the manifest -smoke checks against")
		workdir     = flag.String("workdir", ".bench_build", "directory under which WAL files are kept")
		manifestOut = flag.Bool("manifest-json", false, "print the manifest the program's tables imply and exit")
	)
	flag.Parse()

	switch {
	case *manifestOut:
		b, _ := json.MarshalIndent(manifestFor(int(*seconds)), "", "  ")
		fmt.Println(string(b))
	case *doCompare:
		os.Exit(compareMain(flag.Args()))
	case *trace >= 0:
		os.Exit(singleRun(*workload, *seed, *seconds, *trace == 1, *workdir, *out, *spansPath))
	default:
		if *smoke {
			*seconds, *runs = 2, 1
			if *out == "" {
				*out = filepath.Join(*workdir, "smoke.json")
			}
		}
		code := fullRun(*workload, *seed, *seconds, *runs, *workdir, *out, *spansPath)
		if *smoke && code == 0 {
			code = smokeCheck(*manifestAt, *out)
		}
		os.Exit(code)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// warmupFor is the discarded lead-in: five seconds, or a quarter of a
// short window.
func warmupFor(seconds time.Duration) time.Duration {
	return min(5*time.Second, seconds/4)
}

// singleRun makes one run in this process and prints the one-line
// result the driver reads: the manifest's end_to_end metrics with
// tracing off, its per_layer metrics with tracing on. Everything it
// writes stays under workdir.
func singleRun(workload string, seed uint64, seconds float64, traced bool, workdir, out, spansPath string) int {
	s, ok := workloadByName(workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", workload))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return fail(err)
	}
	// The driver gives a run 180 s; a hung request must not outlive it.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, giving up")
		os.RemoveAll(dir)
		os.Exit(3)
	})
	window := time.Duration(seconds * float64(time.Second))
	res, err := runOne(s, runOpts{
		seed: seed, seconds: window, warmup: warmupFor(window), traced: traced,
		workdir: dir, host: probeHost(),
	})
	if err != nil {
		return fail(err)
	}
	printRun(res)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return fail(err)
		}
	}
	if spansPath != "" && traced {
		if err := res.rec.dump(spansPath); err != nil {
			return fail(err)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, d := range metricDefs {
		if d.inManifestEndToEnd() != traced {
			line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRun lists, on standard error, every metric of a run by name with
// its unit and the sample count behind it.
func printRun(r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d %s %.0fs: attempted=%d failed=%d\n", r.Workload, r.Seed, mode, r.Seconds, r.Attempted, r.Failed)
	for _, v := range r.Void {
		fmt.Fprintf(os.Stderr, "  VOID: %s\n", v)
	}
	for _, d := range metricDefs {
		m, ok := r.Metrics[d.name]
		if !ok || (d.endToEnd && !d.appliesTo(r.Workload)) {
			continue
		}
		note := ""
		if m.Unsupported {
			note = fmt.Sprintf("  (fewer than %d samples beyond it)", minBeyond)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s n=%d%s\n", d.name, m.Value, m.Unit, m.N, note)
	}
}

// fullRun runs every workload (or one) runs times, untraced then
// traced, and writes the result set with its medians and quartiles.
// Each run is a process of its own, exactly the run the driver makes:
// a second run in one process would inherit the first one's heap,
// pools and collector pacing.
func fullRun(only string, seed uint64, seconds float64, runs int, workdir, out, spansPath string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fail(err)
	}
	host := probeHost()
	rs := &resultSet{Schema: 1, Host: host, Seed: seed, Runs: runs, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	fmt.Printf("host: %+v\n", host)
	code := 0
	for _, s := range workloads() {
		if only != "" && only != s.name {
			continue
		}
		wr := &workloadResult{Why: s.why}
		rs.Workloads[s.name] = wr
		for i := 0; i < runs; i++ {
			for _, trace := range []string{"0", "1"} {
				f, err := os.CreateTemp(workdir, "result-*.json")
				if err != nil {
					return fail(err)
				}
				f.Close()
				// Sets with different -seed share no run seed.
				cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.FormatUint(seed*1000+uint64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
					"-workdir", workdir, "-out", f.Name(), "-spans", spansPath)
				cmd.Stderr = os.Stdout // the listing; the child's one-line result is not needed
				if err := cmd.Run(); err != nil {
					os.Remove(f.Name())
					return fail(fmt.Errorf("run of %s: %w", s.name, err))
				}
				var res runResult
				b, err := os.ReadFile(f.Name())
				os.Remove(f.Name())
				if err == nil {
					err = json.Unmarshal(b, &res)
				}
				if err != nil {
					return fail(err)
				}
				if !res.correct() {
					code = 1
				}
				wr.Runs = append(wr.Runs, &res)
			}
		}
		wr.summarise(s.name)
		printSummary(s.name, wr)
	}
	if len(rs.Workloads) == 0 {
		return fail(fmt.Errorf("unknown workload %q", only))
	}
	if out != "" {
		if err := writeJSON(out, rs); err != nil {
			return fail(err)
		}
	}
	return code
}

// smokeCheck holds the result set a smoke run wrote against the
// manifest: the same workloads, the same metric names and units.
func smokeCheck(manifestAt, out string) int {
	m, err := readManifest(manifestAt)
	if err != nil {
		return fail(err)
	}
	rs, err := readResultSet(out)
	if err != nil {
		return fail(err)
	}
	problems := append(m.disagreements(), m.missing(rs)...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "smoke:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Println("smoke:", out, "matches", manifestAt)
	return 0
}

func printSummary(workload string, wr *workloadResult) {
	fmt.Printf("%s: median [q1, q3] over runs\n", workload)
	for _, d := range metricDefs {
		s, ok := wr.EndToEnd[d.name]
		if !ok {
			s, ok = wr.PerLayer[d.name]
		}
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.4f [%.4f, %.4f] %-6s spread=%.1f%% runs=%d n=%d\n", d.name, s.Median, s.Q1, s.Q3, s.Unit, 100*s.spread(), s.Runs, s.N)
	}
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.json change.json")
		return 2
	}
	parent, err := readResultSet(args[0])
	if err != nil {
		return fail(err)
	}
	change, err := readResultSet(args[1])
	if err != nil {
		return fail(err)
	}
	if n := compare(os.Stdout, parent, change); n > 0 {
		fmt.Printf("%d regressed\n", n)
		return 1
	}
	return 0
}

package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tiny keeps unit runs fast; the real tables use defaults via dasbench.
func tiny() Params { return Params{Servers: 8, Requests: 1500, Seeds: 1, Seed: 1} }

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 19 {
		t.Fatalf("len(All) = %d, want 19", len(exps))
	}
	for i, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if i > 0 && idOrder(exps[i-1].ID) >= idOrder(e.ID) {
			t.Fatalf("experiments out of order at %s", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E2"); !ok {
		t.Fatal("E2 should exist")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestRunE1ProducesTable(t *testing.T) {
	var buf bytes.Buffer
	if err := runE1(tiny(), &buf); err != nil {
		t.Fatalf("runE1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"FCFS", "Rein-SBF", "DAS", "mean", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE4CDFRows(t *testing.T) {
	var buf bytes.Buffer
	if err := runE4(tiny(), &buf); err != nil {
		t.Fatalf("runE4: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 20 {
		t.Fatalf("CDF table too short (%d lines):\n%s", len(lines), buf.String())
	}
}

func TestRunE10Ablation(t *testing.T) {
	var buf bytes.Buffer
	if err := runE10(tiny(), &buf); err != nil {
		t.Fatalf("runE10: %v", err)
	}
	for _, want := range []string{"no-slack", "no-feedback", "maxdelay1s"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation missing variant %q", want)
		}
	}
}

func TestRunE11Overhead(t *testing.T) {
	var buf bytes.Buffer
	if err := runE11(Params{}, &buf); err != nil {
		t.Fatalf("runE11: %v", err)
	}
	if !strings.Contains(buf.String(), "depth 4096") {
		t.Fatalf("overhead table missing depth column:\n%s", buf.String())
	}
}

func TestMeasurePolicyLeavesQueueEmpty(t *testing.T) {
	// Regression guard: measurement must not leak queue state.
	for _, pc := range standardPolicies() {
		q := pc.factory(1)
		_ = measurePolicyNsPerOp(pc.factory, 64)
		if q.Len() != 0 {
			t.Fatalf("%s: fresh queue affected", pc.name)
		}
	}
}

func TestGainFormatting(t *testing.T) {
	if got := gain(100*time.Millisecond, 50*time.Millisecond); got != "+50.0%" {
		t.Fatalf("gain = %q, want +50.0%%", got)
	}
	if got := gain(0, time.Second); got != "-" {
		t.Fatalf("gain with zero base = %q, want -", got)
	}
}

func TestDefaultFanoutMean(t *testing.T) {
	f := defaultFanout()
	if m := f.Mean(); m < 3 || m > 9 {
		t.Fatalf("default fanout mean = %v, want moderate multiget width", m)
	}
}

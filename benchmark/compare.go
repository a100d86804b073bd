package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// summary is one metric over the runs of a set: the median and the
// quartiles that say how far the host lets it wander.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	// N is the median sample count behind one run's value.
	N int `json:"n"`
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type workloadResult struct {
	Why      string             `json:"why"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer"`
	Runs     []*runResult       `json:"runs"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Schema    int                        `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summarise fills in a workload's medians and quartiles from its runs.
func (w *workloadResult) summarise(workload string) {
	w.EndToEnd, w.PerLayer = map[string]summary{}, map[string]summary{}
	for _, d := range metricDefs {
		var vals, ns []float64
		for _, r := range w.Runs {
			// End-to-end numbers come from runs with tracing off,
			// per-layer numbers from traced runs.
			if m, ok := r.Metrics[d.name]; ok && r.Traced != d.endToEnd {
				vals = append(vals, m.Value)
				ns = append(ns, float64(m.N))
			}
		}
		if len(vals) == 0 || (d.endToEnd && !d.appliesTo(workload)) {
			continue
		}
		q1, med, q3 := quartiles(vals)
		_, n, _ := quartiles(ns)
		s := summary{Unit: d.unit, Median: med, Q1: q1, Q3: q3, Runs: len(vals), N: int(n)}
		if d.endToEnd {
			w.EndToEnd[d.name] = s
		} else {
			w.PerLayer[d.name] = s
		}
	}
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change's summary with its parent's. A metric whose
// parent wanders by more than the bound between identical runs cannot
// be called unchanged, so it is unresolved.
func judge(d metricDef, parent, change summary) (worse float64, verdict string) {
	if parent.Median != 0 {
		worse = (change.Median - parent.Median) / parent.Median
		if d.better == "higher" {
			worse = -worse
		}
	} else if change.Median != 0 && d.better == "lower" {
		worse = 1 // from nothing to something
	}
	switch {
	case d.bound != zeroBound && parent.spread() > d.bound:
		return worse, verdictUnresolved
	case worse > d.bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compare prints one row per (workload, end-to-end metric) and reports
// how many regressed.
func compare(w io.Writer, parent, change *resultSet) (regressed int) {
	if parent.Host.CPUs != change.Host.CPUs || parent.Host.Kernel != change.Host.Kernel || parent.Host.Go != change.Host.Go {
		fmt.Fprintf(w, "warning: the two sets come from different hosts (%+v vs %+v)\n", parent.Host, change.Host)
	}
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "spread", "verdict")
	for _, s := range workloads() {
		pw, cw := parent.Workloads[s.name], change.Workloads[s.name]
		if pw == nil || cw == nil {
			continue
		}
		for _, d := range metricDefs {
			p, okp := pw.EndToEnd[d.name]
			c, okc := cw.EndToEnd[d.name]
			if !okp || !okc {
				continue
			}
			worse, verdict := judge(d, p, c)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				s.name, d.name+" ("+d.unit+")", p.Median, c.Median, 100*worse, 100*d.bound, 100*p.spread(), verdict)
		}
	}
	return regressed
}

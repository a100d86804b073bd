package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json at the root of the repository: the
// contract later changes are judged by.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// manifestFor builds the manifest the metric and workload tables imply.
func manifestFor(runSeconds int) *manifest {
	m := &manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloads() {
		m.Workloads = append(m.Workloads, manifestWorkload{s.name, s.why})
	}
	for _, d := range metricDefs {
		mm := manifestMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.inManifestEndToEnd() {
			mm.Bound = d.bound
			m.EndToEnd = append(m.EndToEnd, mm)
		} else {
			m.PerLayer = append(m.PerLayer, mm)
		}
	}
	return m
}

// disagreements lists where the manifest on disk and the program's own
// tables name different things.
func (m *manifest) disagreements() []string {
	var out []string
	want := manifestFor(m.RunSeconds)
	if len(m.Workloads) != len(want.Workloads) {
		out = append(out, fmt.Sprintf("manifest has %d workloads, the program %d", len(m.Workloads), len(want.Workloads)))
	}
	for i := range min(len(m.Workloads), len(want.Workloads)) {
		if m.Workloads[i] != want.Workloads[i] {
			out = append(out, fmt.Sprintf("workload %d: manifest %+v, program %+v", i, m.Workloads[i], want.Workloads[i]))
		}
	}
	diff := func(kind string, got, want []manifestMetric) {
		if len(got) != len(want) {
			out = append(out, fmt.Sprintf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want)))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				out = append(out, fmt.Sprintf("%s[%d]: manifest %+v, program %+v", kind, i, got[i], want[i]))
			}
		}
	}
	diff("end_to_end", m.EndToEnd, want.EndToEnd)
	diff("per_layer", m.PerLayer, want.PerLayer)
	return out
}

// missing lists the manifest's names a result set does not carry: every
// end_to_end name on every workload's untraced runs, every per_layer
// name on its traced runs.
func (m *manifest) missing(rs *resultSet) []string {
	var out []string
	for _, w := range m.Workloads {
		wr := rs.Workloads[w.Name]
		if wr == nil {
			out = append(out, "no results for workload "+w.Name)
			continue
		}
		for _, r := range wr.Runs {
			names := m.EndToEnd
			if r.Traced {
				names = m.PerLayer
			}
			for _, mm := range names {
				if got, ok := r.Metrics[mm.Name]; !ok {
					out = append(out, fmt.Sprintf("%s (traced=%v): %s missing", w.Name, r.Traced, mm.Name))
				} else if got.Unit != mm.Unit {
					out = append(out, fmt.Sprintf("%s: %s has unit %q, manifest says %q", w.Name, mm.Name, got.Unit, mm.Unit))
				}
			}
		}
	}
	return out
}

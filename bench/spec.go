package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// specFile is where the benchmark is declared: workload names, metric
// names, units, directions, bounds and the window length live there and
// nowhere in this package. run.sh runs the binary from the root of the
// checkout, which is where the file is.
const specFile = "BENCHMARK.json"

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadSpec reads the declaration and checks that it names exactly the
// workloads this package implements, in order.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the benchmark implements %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("%s: workload %d is %q, the benchmark implements %q there", path, i, s.Workloads[i].Name, w.name)
		}
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer must all be set", path)
	}
	return &s, nil
}

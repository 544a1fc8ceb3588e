package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// resultSet holds the metric values of one side of a comparison:
// workload -> trace -> metric -> one value per run.
type resultSet map[string]map[int]map[string][]float64

// loadSet reads one result envelope, or every envelope in a directory.
func loadSet(path string) (resultSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*-trace[01]-seed*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	set := resultSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var env envelope
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if env.Workload == "" || len(env.Metrics) == 0 {
			return nil, fmt.Errorf("%s: not a result envelope", f)
		}
		if !env.Correct {
			return nil, fmt.Errorf("%s: run failed its checks, refusing to compare it", f)
		}
		byTrace := set[env.Workload]
		if byTrace == nil {
			byTrace = map[int]map[string][]float64{}
			set[env.Workload] = byTrace
		}
		if byTrace[env.Trace] == nil {
			byTrace[env.Trace] = map[string][]float64{}
		}
		for name, v := range env.Metrics {
			byTrace[env.Trace][name] = append(byTrace[env.Trace][name], v.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result envelopes", path)
	}
	return set, nil
}

// relSpread is the interquartile range of xs as a share of their median;
// a single run has none to show.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, medianF(xs))
}

// verdict applies an end-to-end metric's bound to the two sides' medians:
// "worse"/"better" when B's median differs from A's by more than the
// bound in that direction, "unresolved" when either side's own spread is
// wider than the bound, "same" otherwise.
func verdict(s metricSpec, a, b []float64) string {
	ma, mb := medianF(a), medianF(b)
	if ma == 0 {
		return "unresolved"
	}
	change := (mb - ma) / ma // > 0: B is larger
	if s.Better == "higher" {
		change = -change
	}
	// change > 0 now means B is worse
	switch {
	case relSpread(a) > s.Bound || relSpread(b) > s.Bound:
		return "unresolved"
	case change > s.Bound:
		return "worse"
	case change < -s.Bound:
		return "better"
	}
	return "same"
}

// compareSets prints one row per workload x metric present on both sides,
// every ratio with its base, applies BENCHMARK.json's bounds and fails if
// any end-to-end metric is worse.
func compareSets(spec *benchSpec, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (base)   B = %s\n", pathA, pathB)
	fmt.Printf("%-22s %-40s %14s %14s %-6s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "unit", "B/A", "iqr A", "iqr B", "bound", "verdict")
	worse := 0
	for _, w := range spec.Workloads {
		for trace, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			va, vb := a[w.Name][trace], b[w.Name][trace]
			for _, s := range specs {
				xa, xb := va[s.Name], vb[s.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				ma, mb := medianF(xa), medianF(xb)
				bound, v := "-", "-"
				if trace == 0 {
					bound = fmt.Sprintf("%.3g%%", 100*s.Bound)
					v = verdict(s, xa, xb)
					if v == "worse" {
						worse++
					}
				}
				fmt.Printf("%-22s %-40s %14.4f %14.4f %-6s %9.4f %7.2f%% %7.2f%% %7s  %s\n",
					w.Name, s.Name, ma, mb, s.Unit, ratio(mb, ma), 100*relSpread(xa), 100*relSpread(xb), bound, v)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("bench: %d end-to-end metrics are worse in B than in A", worse)
	}
	return nil
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	sc := newScale(0.01)
	for _, w := range workloads {
		for session := 0; session < w.writers; session++ {
			a := streamHash(w.newGen(sc, 7, session), 500)
			b := streamHash(w.newGen(sc, 7, session), 500)
			c := streamHash(w.newGen(sc, 8, session), 500)
			if a != b {
				t.Errorf("%s session %d: the same seed gave two different streams", w.name, session)
			}
			if a == c {
				t.Errorf("%s session %d: seeds 7 and 8 gave the same stream", w.name, session)
			}
		}
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {5, 50},
	} {
		if got := highestPercentile(tc.n, 100); got != tc.want {
			t.Errorf("highestPercentile(%d, 100) = %v, want %v", tc.n, got, tc.want)
		}
		if got, want := highestPercentile(tc.n, 95), math.Min(tc.want, 95); got != want {
			t.Errorf("highestPercentile(%d, 95) = %v, want %v", tc.n, got, want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := relSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1 (5.5 over 5.5)", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "tput", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		spec metricSpec
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104, 104}, "same"},
		{lower, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, []float64{90, 150, 120, 100, 140}, "unresolved"},
	} {
		if got := verdict(tc.spec, base, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", tc.spec.Name, tc.b, got, tc.want)
		}
	}
}

// testSpec loads the repository's BENCHMARK.json; the tests run in bench/.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecWithinContract(t *testing.T) {
	b, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("%s is %d bytes, the limit is 64 KiB", specFile, len(b))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("%s has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", specFile, len(raw))
	}
	spec := testSpec(t)
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s with unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// The smoke runs every workload at 1/100 scale through both passes and
// fails on any failed output check, and on any metric that is declared in
// BENCHMARK.json and not measured, or measured and not declared.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := testSpec(t)
	p := runParams{seed: 3, ops: 28, scale: 0.01}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			out, err := w.runEndToEnd(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range out.errs {
				t.Errorf("untraced pass: %v", e)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("untraced pass: %d of %d operations failed", out.failed, out.attempted)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := out.metrics[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", m.Name, v)
				}
			}
			if len(out.metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced pass measured %d metrics, %s declares %d", len(out.metrics), specFile, len(spec.EndToEnd))
			}
			out, err = w.runTraced(p, spec.PerLayer, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range out.errs {
				t.Errorf("traced pass: %v", e)
			}
			for _, m := range spec.PerLayer {
				if v, ok := out.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v, want a number", m.Name, v)
				}
			}
			if len(out.metrics) != len(spec.PerLayer) {
				t.Errorf("traced pass measured %d metrics, %s declares %d", len(out.metrics), specFile, len(spec.PerLayer))
			}
			if out.samples["spans"] == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

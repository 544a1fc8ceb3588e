// Command bench is the repository's wall-clock benchmark: five workloads
// over the public joinview API, end-to-end metrics from an untraced pass
// and per-layer metrics from a traced pass. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1 [-out DIR]
//	bench -compare A B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: exactly these keys.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envelope is the result file: the driver line plus everything needed to
// interpret or reproduce the run.
type envelope struct {
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Scale      float64                `json:"scale"`
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	Config     map[string]any         `json:"config"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string]int         `json:"samples"`
	// SegmentStmtsPerS is the in-run spread: write throughput of each of
	// the window's slices.
	SegmentStmtsPerS []float64 `json:"segment_stmts_per_s"`
}

// commit reads the VCS revision the toolchain stamped into the binary;
// a checkout that is not a repository has none.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// config describes how the workload configures the engine and the load.
func (w *workload) config() map[string]any {
	transport := "direct"
	switch {
	case w.opts.UseTCP:
		transport = "tcp"
	case w.opts.UseChannels:
		transport = "chan"
	}
	flush := "none"
	if w.opts.Durability {
		flush = "WAL forced once per statement (engine default)"
	}
	return map[string]any{
		"transport":          transport,
		"nodes":              w.opts.Nodes,
		"durability":         w.opts.Durability,
		"replication_factor": w.opts.ReplicationFactor,
		"checkpoint_every":   w.opts.CheckpointEvery,
		"async":              w.opts.AsyncMaintenance,
		"epoch_size":         w.opts.EpochSize,
		"buffer_pages":       w.opts.BufferPages,
		"writers":            w.writers,
		"reader_rate_per_s":  w.readRate,
		"flush_policy":       flush,
	}
}

// report prints every metric by name with its unit, writes the envelope
// and prints the driver line last.
func report(w *workload, p runParams, trace int, specs []metricSpec, out *outcome, outDir string) error {
	metrics := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok {
			return fmt.Errorf("bench: metric %s is declared in %s but was not measured", s.Name, specFile)
		}
		metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range out.metrics {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("bench: metric %s was measured but is not declared in %s", name, specFile)
		}
	}
	fmt.Printf("# %s  seed=%d seconds=%g trace=%d scale=%g\n", w.name, p.seed, p.seconds, trace, p.scale)
	for _, s := range specs {
		fmt.Printf("%-42s %16.4f %s\n", s.Name, metrics[s.Name].Value, s.Unit)
	}
	names := make([]string, 0, len(out.samples))
	for k := range out.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("samples.%-34s %16d\n", k, out.samples[k])
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if len(out.segments) > 0 {
		lo, hi := minMax(out.segments)
		fmt.Printf("segments write_stmts_per_s min %.1f max %.1f of %d\n", lo, hi, len(out.segments))
	}
	var errs []string
	for _, e := range out.errs {
		errs = append(errs, e.Error())
		fmt.Printf("FAILED CHECK: %v\n", e)
	}
	line := driverLine{Correct: len(errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if outDir != "" {
		env := envelope{
			Workload: w.name, Trace: trace, Seed: p.seed, Seconds: p.seconds, Scale: p.scale,
			Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Config: w.config(), Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed,
			Errors: errs, Metrics: metrics, Samples: out.samples, SegmentStmtsPerS: out.segments,
		}
		b, err := json.MarshalIndent(env, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-trace%d-seed%d.json", w.name, trace, p.seed)
		if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("bench: %s failed %d checks", w.name, len(errs))
	}
	return nil
}

func run() error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("bench: %w (run it from the root of the checkout)", err)
	}
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated data and operation streams")
		seconds = flag.Float64("seconds", float64(spec.RunSeconds), "length of the measured window")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		outDir  = flag.String("out", ".bench_out", "directory for result envelopes and span dumps (empty: write nothing)")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare A B (files or directories)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("bench: -compare takes two result files or directories")
		}
		return compareSets(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("bench: -seconds must be positive")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("bench: unknown workload %q", *name)
	}
	p := runParams{seed: *seed, seconds: *seconds, scale: 1}
	var firstErr error
	for _, w := range todo {
		if w.procs > 0 {
			runtime.GOMAXPROCS(w.procs)
		} else {
			runtime.GOMAXPROCS(runtime.NumCPU())
		}
		var (
			out   *outcome
			specs []metricSpec
			err   error
		)
		if *trace == 0 {
			specs = spec.EndToEnd
			out, err = w.runEndToEnd(p)
		} else {
			specs = spec.PerLayer
			out, err = w.runTraced(p, spec.PerLayer, *outDir)
		}
		if err == nil {
			err = report(w, p, *trace, specs, out, *outDir)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// gcPercent is the collector's heap-growth target for the whole process.
// The workloads' live heaps are small (17 to 100 MB) and their allocation
// rates high, so at the default of 100 the collector runs ~30 times a
// second and where its cycles fall in the window moves throughput by
// +-10 % from run to run; at 400 the same runs agree within +-3 %.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

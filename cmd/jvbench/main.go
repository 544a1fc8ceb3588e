// Command jvbench regenerates the paper's evaluation — every figure from
// the analytical model, the measured counterparts on the cluster
// simulator, the Table 1 data-set summary — and the repo's extension
// experiments, all in logical cost (page I/Os, messages). The experiments
// are the entries of experiments.Registry; wall-clock performance is
// measured by the benchmark harness (bash bench/run.sh), not here.
//
// Usage:
//
//	jvbench [-exp all|<name>] [-measured] [-maxl 128] [-scale 100] [-a N]
//	        [-faults 0.02] [-csv dir] [-cpuprofile f] [-memprofile f]
//
// -measured additionally runs the simulator for figures that also have an
// analytical grid (7–11); every other experiment always runs. -maxl caps
// the node-count axis (larger sweeps take longer); -scale is the divisor
// applied to Table 1's row counts (table1, fig14); -a overrides the
// transaction size or stream length of experiments that have one (fig14's
// default is the paper's 128 tuples); -csv also writes every result table
// as CSV for plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"joinview/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process boundary injected, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := strings.Join(experiments.Names(), ", ")
	exp := fs.String("exp", "all", "experiment to run: all, "+names)
	measured := fs.Bool("measured", false, "also run the measured (simulator) variants of figs 7-11")
	maxL := fs.Int("maxl", 128, "largest node count to sweep")
	scale := fs.Int("scale", 100, "Table 1 scale divisor for table1 and fig14 (100 = 1,500 customers)")
	deltaA := fs.Int("a", 0, "transaction size / stream length (0 = each experiment's own; fig14 inserts 128 tuples into customer)")
	faultRate := fs.Float64("faults", 0.02, "per-kind fault probability for -exp faults")
	csvDir := fs.String("csv", "", "also write each result table as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "jvbench:", err)
		return 1
	}

	selected := experiments.Registry
	if *exp != "all" {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			return fail(fmt.Errorf("unknown experiment %q (want all, %s)", *exp, names))
		}
		selected = []experiments.Experiment{e}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
	}
	show := func(g experiments.Grid) {
		fmt.Fprintln(stdout, g.Render())
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, g.Slug()+".csv"))
		if err != nil {
			fmt.Fprintln(stderr, "jvbench: csv:", err)
			return
		}
		if err := g.WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, "jvbench: csv:", err)
		}
		f.Close()
	}

	code := 0
	for _, e := range selected {
		if e.Model != nil {
			show(e.Model())
		}
		if e.Run == nil || (e.Model != nil && !*measured) {
			continue
		}
		ax := e.Full
		ax.Ls = clampLs(ax.Ls, *maxL)
		if ax.Scale != 0 {
			ax.Scale = *scale
		}
		if ax.N != 0 && *deltaA > 0 {
			ax.N = *deltaA
		}
		if ax.Rate != 0 {
			ax.Rate = *faultRate
		}
		start := time.Now()
		g, err := e.Run(ax)
		if err != nil {
			code = fail(fmt.Errorf("%s: %w", e.Name, err))
			break
		}
		show(g)
		fmt.Fprintf(stdout, "(%s computed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return code
}

// clampLs caps a node-count axis at maxL: larger entries become maxL, and
// the duplicates that produces are dropped.
func clampLs(ls []int, maxL int) []int {
	var out []int
	for _, l := range ls {
		l = min(l, maxL)
		if len(out) == 0 || out[len(out)-1] != l {
			out = append(out, l)
		}
	}
	return out
}

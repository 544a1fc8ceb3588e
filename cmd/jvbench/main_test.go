package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"joinview/internal/experiments"
)

func jvbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "seed", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wallClock matches the column headers of the retired BENCH_*.json
// measurements: rates, latencies, speedups, allocations.
var wallClock = regexp.MustCompile(`/s$|/sec$|µs|speedup|allocs|stall|-read$|^repair$`)

// TestEveryRegistryNameAccepted runs each experiment the registry lists —
// the ones that used to write BENCH_*.json included — at the smallest axes
// the flags allow and expects a grid on stdout whose header has no
// wall-clock column.
func TestEveryRegistryNameAccepted(t *testing.T) {
	for _, e := range experiments.Registry {
		code, out, errOut := jvbench("-exp", e.Name, "-maxl", "3", "-a", "4", "-scale", "1000")
		lines := strings.Split(out, "\n")
		if code != 0 || len(lines) < 4 {
			t.Errorf("-exp %s: exit %d (%s), output:\n%s", e.Name, code, errOut, out)
			continue
		}
		for _, col := range regexp.MustCompile(` {2,}`).Split(strings.TrimSpace(lines[1]), -1) {
			if wallClock.MatchString(col) {
				t.Errorf("-exp %s: wall-clock column %q in header: %s", e.Name, col, lines[1])
			}
		}
	}
}

// TestGoldenAxesPrintTheGoldenGrid: when the flags land on an
// experiment's golden axes, jvbench prints the pinned grid itself.
func TestGoldenAxesPrintTheGoldenGrid(t *testing.T) {
	for _, args := range [][]string{{"-exp", "hotpath"}, {"-exp", "table1", "-scale", "400"}} {
		code, out, errOut := jvbench(args...)
		if want := golden(t, args[1]); code != 0 || !strings.HasPrefix(out, want) {
			t.Errorf("%v: exit %d (%s), output diverges from the golden grid\nwant:\n%s\ngot:\n%s", args, code, errOut, want, out)
		}
	}
}

func TestUnknownExperimentListsRegistry(t *testing.T) {
	code, out, errOut := jvbench("-exp", "fig99")
	if code == 0 || out != "" {
		t.Fatalf("-exp fig99: exit %d, stdout %q", code, out)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(errOut, name) {
			t.Errorf("error does not list %q: %s", name, errOut)
		}
	}
}

func TestClampLs(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		maxL int
		want string
	}{
		{experiments.DefaultLs, 8, "[1 2 4 8]"},
		{[]int{8}, 4, "[4]"},
		{[]int{2, 4, 8}, 1, "[1]"},
		{nil, 4, "[]"},
	} {
		if got := fmt.Sprint(clampLs(tc.in, tc.maxL)); got != tc.want {
			t.Errorf("clampLs(%v, %d) = %s, want %s", tc.in, tc.maxL, got, tc.want)
		}
	}
}

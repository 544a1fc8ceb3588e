package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"joinview/internal/cluster"
)

// TestTransportEquivalence runs every measured experiment grid on both
// transports and asserts each render — every tw-ios, maxnode-ios and msgs
// cell — is byte-identical to the checked-in seed trace
// (testdata/seed/*.golden, captured from the original hand-rolled
// executor before the compiled-plan pipeline replaced it).
//
// Two properties at once: the compiled pipeline reproduces the seed's
// traces exactly, and the logical meters do not notice whether per-node
// calls were dispatched serially on one goroutine or gathered from a
// worker pool, nor whether global-index traffic traveled as per-entry
// messages or batched envelopes.
//
// NetworkSensitivity is excluded: it reports wall-clock µs and already
// requires the channel transport. Axes are kept small; jvbench runs the
// full sweeps.
func TestTransportEquivalence(t *testing.T) {
	for _, tc := range GoldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "seed", tc.Name+".golden"))
			if err != nil {
				t.Fatalf("seed trace: %v", err)
			}
			ConfigHook = nil
			direct, err := tc.Run()
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			if got := direct.Render(); got != string(want) {
				t.Errorf("direct transport diverges from seed trace\nseed:\n%s\ngot:\n%s", want, got)
			}
			if tc.DirectOnly != "" {
				t.Logf("pinned on Direct only: %s", tc.DirectOnly)
				return
			}
			ConfigHook = func(cfg *cluster.Config) { cfg.UseChannels = true }
			defer func() { ConfigHook = nil }()
			chann, err := tc.Run()
			if err != nil {
				t.Fatalf("channels: %v", err)
			}
			if got := chann.Render(); got != string(want) {
				t.Errorf("channel transport diverges from seed trace\nseed:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestPlanCacheUnderGoldenWorkload pins the cache-effectiveness claim the
// traces alone cannot show: rerunning a measured grid with the plan cache
// disabled (per-statement compilation, the seed's planning model) must
// still reproduce the same bytes — caching is a pure optimization.
func TestPlanCacheUnderGoldenWorkload(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seed", "fig7.golden"))
	if err != nil {
		t.Fatalf("seed trace: %v", err)
	}
	ConfigHook = func(cfg *cluster.Config) { cfg.DisablePlanCache = true }
	defer func() { ConfigHook = nil }()
	g, err := Fig7Measured([]int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Render(); got != string(want) {
		t.Errorf("uncached pipeline diverges from seed trace\nseed:\n%s\ngot:\n%s", want, got)
	}
}

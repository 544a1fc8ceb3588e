package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"joinview/internal/cluster"
)

// TestTransportEquivalence runs every registry experiment at its golden
// axes on the direct and channel transports and asserts each render — every tw-ios,
// maxnode-ios and msgs cell — is byte-identical to the checked-in seed
// trace (testdata/seed/*.golden; the paper grids were captured from the
// original hand-rolled executor before the compiled-plan pipeline replaced
// it).
//
// Two properties at once: the compiled pipeline reproduces the seed's
// traces exactly, and the logical meters do not notice whether per-node
// calls were dispatched serially on one goroutine or gathered from a
// worker pool, nor whether global-index traffic traveled as per-entry
// messages or batched envelopes.
//
// The paper's grids (Table 1, Figures 7–14) also run over the loopback
// TCP link, whose envelopes cross a real socket in the wire codec; the
// repo's extensions keep to the two in-process links.
//
// An entry with DirectOnly is checked on the Direct transport alone. Axes
// are kept small; jvbench runs the full sweeps.
func TestTransportEquivalence(t *testing.T) {
	for _, tc := range Registry {
		t.Run(tc.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "seed", tc.Name+".golden"))
			if err != nil {
				t.Fatalf("seed trace: %v", err)
			}
			ConfigHook = nil
			direct, err := tc.GoldenGrid()
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
			defer func() { ConfigHook = nil }()
			for _, leg := range []struct {
				name string
				hook func(*cluster.Config)
			}{
				{"channel", func(cfg *cluster.Config) { cfg.UseChannels = true }},
				{"tcp", func(cfg *cluster.Config) { cfg.UseTCP = true }},
			} {
				if leg.name == "tcp" && !paperGrid(tc.Name) {
					continue
				}
				ConfigHook = leg.hook
				grid, err := tc.GoldenGrid()
				if err != nil {
					t.Fatalf("%s: %v", leg.name, err)
				}
				if got := grid.Render(); got != string(want) {
					t.Errorf("%s transport diverges from seed trace\nseed:\n%s\ngot:\n%s", leg.name, want, got)
				}
			}
		})
	}
}

// paperGrid reports whether the experiment reproduces the paper's Table 1
// or one of its Figures 7–14.
func paperGrid(name string) bool {
	return name == "table1" || strings.HasPrefix(name, "fig")
}

package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"joinview/internal/cluster"
)

// TestTransportEquivalence runs every registry experiment at its golden
// axes on both transports and asserts each render — every tw-ios,
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
// An entry with NoGolden (NetworkSensitivity: wall-clock µs) is skipped;
// one with DirectOnly is checked on the Direct transport alone. Axes are
// kept small; jvbench runs the full sweeps.
func TestTransportEquivalence(t *testing.T) {
	for _, tc := range Registry {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.NoGolden != "" {
				t.Skipf("not pinned: %s", tc.NoGolden)
			}
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
			ConfigHook = func(cfg *cluster.Config) { cfg.UseChannels = true }
			defer func() { ConfigHook = nil }()
			chann, err := tc.GoldenGrid()
			if err != nil {
				t.Fatalf("channels: %v", err)
			}
			if got := chann.Render(); got != string(want) {
				t.Errorf("channel transport diverges from seed trace\nseed:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

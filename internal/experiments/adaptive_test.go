package experiments

import (
	"fmt"
	"testing"
)

// TestAdaptiveBeatsFixedStrategies is the experiment's headline claim: over
// the mixed delta stream the cost-advisor-driven adaptive run never does
// more total work than the best fixed method (it discovers the winner per
// statement from the cached plan's options, paying nothing for keeping the
// alternatives open) and clearly beats the mispinned methods.
func TestAdaptiveBeatsFixedStrategies(t *testing.T) {
	const statements = 120
	g, err := AdaptiveStrategy(8, statements)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(g.Rows))
	}
	// Columns: L method stmts tuples tw-ios maxnode-ios msgs picks.
	bestFixed, worstFixed := int64(-1), int64(-1)
	bestLabel := ""
	for _, row := range g.Rows[:3] {
		tw := atoi(t, row[4])
		if bestFixed < 0 || tw < bestFixed {
			bestFixed, bestLabel = tw, row[1]
		}
		if tw > worstFixed {
			worstFixed = tw
		}
	}
	adaptive := g.Rows[3]
	if adaptive[1] != "adaptive" {
		t.Fatalf("last row is %q, want the adaptive run", adaptive[1])
	}
	if tw := atoi(t, adaptive[4]); tw > bestFixed {
		t.Errorf("adaptive TW %d exceeds best fixed (%s) %d", tw, bestLabel, bestFixed)
	} else if tw >= worstFixed {
		t.Errorf("adaptive TW %d does not beat the worst fixed method %d — the comparison shows nothing",
			tw, worstFixed)
	}
	var naive, ar, gi int
	if _, err := fmt.Sscanf(adaptive[7], "%d/%d/%d", &naive, &ar, &gi); err != nil || naive+ar+gi != statements {
		t.Errorf("advisor picks %q do not cover the %d statements (%v)", adaptive[7], statements, err)
	}
}

// TestAdaptiveDeltasMixRegimes pins the stream shape the experiment's
// claims depend on: both size regimes and both distributions present.
func TestAdaptiveDeltasMixRegimes(t *testing.T) {
	ds := AdaptiveDeltas(40)
	small, large, zipf := 0, 0, 0
	for _, d := range ds {
		if d.Size <= 8 {
			small++
		} else {
			large++
		}
		if d.Zipf {
			zipf++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("stream not mixed: %d small, %d large", small, large)
	}
	if zipf == 0 || zipf == len(ds) {
		t.Errorf("stream distribution not mixed: %d/%d zipf", zipf, len(ds))
	}
}

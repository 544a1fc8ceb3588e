package experiments

import (
	"testing"

	"joinview/internal/storage"
)

// TestManyViewsSharedWins pins the many-views claims at the golden
// cluster size: with a single view there is no shared potential (classic
// path, per-view arithmetic degenerates to the run itself); with a shared
// group the DAG executor does strictly less work over the very same
// stream, saving at least 60 % of the total workload at 100 views; and the
// simulator agrees with Plan.SharedTW where the model applies.
func TestManyViewsSharedWins(t *testing.T) {
	g, err := ManyViews(8, 16, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 3 {
		t.Fatalf("grid has %d rows, want 3:\n%s", len(g.Rows), g.Render())
	}
	// Columns: L views stmts tw per-view-tw saved% msgs per-view-msgs
	// saved% sharedjoin-pages view-pages model-tw.
	one := g.Rows[0]
	if one[3] != one[4] || one[6] != one[7] {
		t.Errorf("one view: run diverges from its own per-view arithmetic: %v", one)
	}
	if one[9] != "0" {
		t.Errorf("one view ran the shared pre-pass (%s pages): no shared potential expected", one[9])
	}
	// The model charges a clustered probe one SEARCH whatever the fan-out
	// (the paper's N matches share a page); the simulator reads every page
	// the manyViewsFanout matches occupy. Per statement the DAG runs the
	// one distinct chain once, so shared-join pages = model × pages/probe.
	probePages := int64((manyViewsFanout + storage.DefaultPageRows - 1) / storage.DefaultPageRows)
	for _, row := range g.Rows[1:] {
		if atoi(t, row[3]) >= atoi(t, row[4]) {
			t.Errorf("%s views: shared %s I/Os not below per-view %s", row[1], row[3], row[4])
		}
		if atoi(t, row[6]) >= atoi(t, row[7]) {
			t.Errorf("%s views: shared %s messages not below per-view %s", row[1], row[6], row[7])
		}
		if got, want := atoi(t, row[9]), atoi(t, row[11])*probePages; got != want {
			t.Errorf("%s views: shared-join pages %d, model predicts %d (%s chain probes x %d pages)",
				row[1], got, want, row[11], probePages)
		}
	}
	hundred := g.Rows[2]
	if saved := pctSaved(atoi(t, hundred[4]), atoi(t, hundred[3])); saved < 60 {
		t.Errorf("100 views: shared DAG saves %.1f%% of TW (%s vs %s per-view), want >= 60%%",
			saved, hundred[3], hundred[4])
	}
}

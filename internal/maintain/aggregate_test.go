package maintain

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/types"
)

// aggCatalog builds a two-table catalog with an aggregate view grouped on
// a.g summing b.m.
func aggCatalog(t *testing.T) (*catalog.Catalog, *catalog.View) {
	t.Helper()
	cat := catalog.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.AddTable(&catalog.Table{
		Name: "a",
		Schema: types.NewSchema(
			types.Column{Name: "g", Kind: types.KindInt},
			types.Column{Name: "k", Kind: types.KindInt},
		),
		PartitionCol: "g",
	}))
	must(cat.AddTable(&catalog.Table{
		Name: "b",
		Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "m", Kind: types.KindFloat},
		),
		PartitionCol: "k",
	}))
	v := &catalog.View{
		Name:   "av",
		Tables: []string{"a", "b"},
		Joins:  []catalog.JoinPred{{Left: "a", LeftCol: "k", Right: "b", RightCol: "k"}},
		Out:    []catalog.OutCol{{Table: "a", Col: "g"}},
		Aggs: []catalog.AggSpec{
			{Func: "count"},
			{Func: "sum", Table: "b", Col: "m"},
		},
		PartitionTable: "a", PartitionCol: "g",
	}
	must(cat.AddView(v))
	return cat.Build(), v
}

func TestMaintenanceProjection(t *testing.T) {
	_, v := aggCatalog(t)
	proj := v.MaintenanceProjection()
	if len(proj) != 2 || proj[0] != "a.g" || proj[1] != "b.m" {
		t.Errorf("projection = %v", proj)
	}
	if got := v.MeasureColsOf("b"); len(got) != 1 || got[0] != "m" {
		t.Errorf("MeasureColsOf = %v", got)
	}
	if got := v.MeasureColsOf("a"); len(got) != 0 {
		t.Errorf("MeasureColsOf(a) = %v", got)
	}
}

func TestFoldAggDeltas(t *testing.T) {
	_, v := aggCatalog(t)
	// Rows in the maintenance projection (a.g, b.m).
	rows := []types.Tuple{
		{types.Int(1), types.Float(2.5)},
		{types.Int(1), types.Float(0.5)},
		{types.Int(2), types.Float(4)},
		{types.Int(1), types.Null()}, // NULL measure: counted, not summed
	}
	groups, err := FoldAggDeltas(v, rows, OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	g1 := groups[0]
	if g1.Key[0].I != 1 || g1.Deltas[0].I != 3 || g1.Deltas[1].F != 3 {
		t.Errorf("group 1 = %+v", g1)
	}
	g2 := groups[1]
	if g2.Key[0].I != 2 || g2.Deltas[0].I != 1 || g2.Deltas[1].F != 4 {
		t.Errorf("group 2 = %+v", g2)
	}
	// Deletes negate.
	neg, err := FoldAggDeltas(v, rows[:1], OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	if neg[0].Deltas[0].I != -1 || neg[0].Deltas[1].F != -2.5 {
		t.Errorf("negated = %+v", neg[0])
	}
}

func TestFoldAggRows(t *testing.T) {
	_, v := aggCatalog(t)
	rows, err := FoldAggRows(v, []types.Tuple{
		{types.Int(7), types.Float(1)},
		{types.Int(7), types.Float(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("folded = %v", rows)
	}
	if rows[0][0].I != 7 || rows[0][1].I != 2 || rows[0][2].F != 3 {
		t.Errorf("folded row = %v", rows[0])
	}
}

func TestFoldAggErrors(t *testing.T) {
	cat, v := aggCatalog(t)
	_ = cat
	// Not an aggregate view.
	plain := &catalog.View{Name: "p"}
	if _, err := FoldAggDeltas(plain, nil, OpInsert); err == nil {
		t.Error("folding a plain view should fail")
	}
	// Short row.
	if _, err := FoldAggDeltas(v, []types.Tuple{{}}, OpInsert); err == nil {
		t.Error("short delta row should fail")
	}
	// Non-numeric measure value.
	if _, err := FoldAggDeltas(v, []types.Tuple{{types.Int(1), types.String("x")}}, OpInsert); err == nil {
		t.Error("string measure should fail")
	}
}

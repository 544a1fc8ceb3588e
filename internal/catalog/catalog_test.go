package catalog

import (
	"reflect"
	"strings"
	"testing"

	"joinview/internal/types"
)

func tpcrCatalog(t *testing.T) *Builder {
	t.Helper()
	c := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddTable(&Table{
		Name: "customer",
		Schema: types.NewSchema(
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "acctbal", Kind: types.KindFloat},
		),
		PartitionCol: "custkey",
		ClusterCol:   "custkey",
	}))
	must(c.AddTable(&Table{
		Name: "orders",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "totalprice", Kind: types.KindFloat},
		),
		PartitionCol: "orderkey",
		ClusterCol:   "orderkey",
	}))
	must(c.AddTable(&Table{
		Name: "lineitem",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "partkey", Kind: types.KindInt},
			types.Column{Name: "extendedprice", Kind: types.KindFloat},
		),
		PartitionCol: "partkey",
	}))
	return c
}

func jv2(strategy Strategy) *View {
	return &View{
		Name:   "jv2",
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []OutCol{
			{"customer", "custkey"}, {"customer", "acctbal"},
			{"orders", "orderkey"}, {"orders", "totalprice"},
			{"lineitem", "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: strategy,
	}
}

func TestAddTableValidation(t *testing.T) {
	c := tpcrCatalog(t)
	if err := c.AddTable(&Table{Name: "customer", Schema: types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), PartitionCol: "x"}); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := c.AddTable(&Table{Name: "t", Schema: types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), PartitionCol: "nope"}); err == nil {
		t.Error("bad partition column should fail")
	}
	if err := c.AddTable(&Table{Name: "t2"}); err == nil {
		t.Error("empty schema should fail")
	}
	if err := c.AddTable(&Table{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	if err := c.AddTable(&Table{
		Name:         "t3",
		Schema:       types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}),
		PartitionCol: "x", ClusterCol: "nope",
	}); err == nil {
		t.Error("bad cluster column should fail")
	}
	if _, err := c.Table("ghost"); err == nil {
		t.Error("missing table lookup should fail")
	}
	got := c.Tables()
	if len(got) != 3 || got[0] != "customer" {
		t.Errorf("Tables() = %v", got)
	}
}

func TestAddIndex(t *testing.T) {
	c := tpcrCatalog(t)
	if err := c.AddIndex("orders", Index{Name: "ix_cust", Col: "custkey"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex("orders", Index{Name: "ix_cust", Col: "custkey"}); err == nil {
		t.Error("duplicate index name should fail")
	}
	if err := c.AddIndex("orders", Index{Name: "ix2", Col: "nope"}); err == nil {
		t.Error("index on unknown column should fail")
	}
	if err := c.AddIndex("ghost", Index{Name: "ix", Col: "x"}); err == nil {
		t.Error("index on unknown table should fail")
	}
	tab, _ := c.Table("orders")
	if !tab.HasIndexOn("custkey") || tab.HasIndexOn("totalprice") {
		t.Error("HasIndexOn wrong")
	}
}

func TestAuxRelDerivation(t *testing.T) {
	c := tpcrCatalog(t)
	a := &AuxRel{Name: "orders_1", Table: "orders", PartitionCol: "custkey", Cols: []string{"custkey", "orderkey", "totalprice"}}
	if err := c.AddAuxRel(a); err != nil {
		t.Fatal(err)
	}
	if a.Schema.Len() != 3 || a.Schema.Cols[0].Name != "custkey" {
		t.Errorf("derived schema %v", a.Schema.Names())
	}
	if !a.Covers([]string{"custkey", "orderkey"}) || a.Covers([]string{"partkey"}) {
		t.Error("Covers wrong")
	}
	// Full-copy AR: empty Cols.
	full := &AuxRel{Name: "orders_full", Table: "orders", PartitionCol: "custkey"}
	if err := c.AddAuxRel(full); err != nil {
		t.Fatal(err)
	}
	if full.Schema.Len() != 3 {
		t.Errorf("full AR schema %v", full.Schema.Names())
	}
	// Errors.
	if err := c.AddAuxRel(&AuxRel{Name: "orders_1", Table: "orders", PartitionCol: "custkey"}); err == nil {
		t.Error("duplicate AR should fail")
	}
	if err := c.AddAuxRel(&AuxRel{Name: "customer", Table: "orders", PartitionCol: "custkey"}); err == nil {
		t.Error("AR shadowing a table name should fail")
	}
	if err := c.AddAuxRel(&AuxRel{Name: "x", Table: "ghost", PartitionCol: "c"}); err == nil {
		t.Error("AR on unknown table should fail")
	}
	if err := c.AddAuxRel(&AuxRel{Name: "y", Table: "orders", PartitionCol: "custkey", Cols: []string{"orderkey"}}); err == nil {
		t.Error("AR not retaining partition column should fail")
	}
	if err := c.AddAuxRel(&AuxRel{Name: "z", Table: "orders", PartitionCol: "custkey", Cols: []string{"nope"}}); err == nil {
		t.Error("AR with unknown column should fail")
	}
	// Lookups.
	ars := c.AuxRelsFor("orders")
	if len(ars) != 2 || ars[0].Name != "orders_1" {
		t.Errorf("AuxRelsFor = %v", ars)
	}
	if got, ok := c.AuxRelOn("orders", "custkey", []string{"orderkey", "totalprice"}); !ok || got.Name != "orders_1" {
		t.Errorf("AuxRelOn = %v, %v", got, ok)
	}
	if _, ok := c.AuxRelOn("orders", "orderkey", nil); ok {
		t.Error("AuxRelOn with wrong partition col should miss")
	}
	if _, err := c.AuxRel("nope"); err == nil {
		t.Error("missing AR lookup should fail")
	}
	if got, err := c.AuxRel("orders_1"); err != nil || got.Name != "orders_1" {
		t.Error("AR lookup failed")
	}
}

func TestGlobalIndexDistClusteredDerivation(t *testing.T) {
	c := tpcrCatalog(t)
	g1 := &GlobalIndex{Name: "gi_orders_cust", Table: "orders", Col: "custkey"}
	if err := c.AddGlobalIndex(g1); err != nil {
		t.Fatal(err)
	}
	if g1.DistClustered {
		t.Error("orders clustered on orderkey: GI on custkey must be non-clustered")
	}
	g2 := &GlobalIndex{Name: "gi_orders_ok", Table: "orders", Col: "orderkey"}
	if err := c.AddGlobalIndex(g2); err != nil {
		t.Fatal(err)
	}
	if !g2.DistClustered {
		t.Error("GI on the local cluster column must be distributed clustered")
	}
	if err := c.AddGlobalIndex(&GlobalIndex{Name: "gi_orders_cust", Table: "orders", Col: "custkey"}); err == nil {
		t.Error("duplicate GI should fail")
	}
	if err := c.AddGlobalIndex(&GlobalIndex{Name: "x", Table: "ghost", Col: "c"}); err == nil {
		t.Error("GI on unknown table should fail")
	}
	if err := c.AddGlobalIndex(&GlobalIndex{Name: "y", Table: "orders", Col: "nope"}); err == nil {
		t.Error("GI on unknown column should fail")
	}
	if got, ok := c.GlobalIndexOn("orders", "custkey"); !ok || got.Name != "gi_orders_cust" {
		t.Error("GlobalIndexOn miss")
	}
	if _, ok := c.GlobalIndexOn("orders", "totalprice"); ok {
		t.Error("GlobalIndexOn false positive")
	}
	if got := c.GlobalIndexesFor("orders"); len(got) != 2 {
		t.Errorf("GlobalIndexesFor = %v", got)
	}
	if _, err := c.GlobalIndex("nope"); err == nil {
		t.Error("missing GI lookup should fail")
	}
	if got, err := c.GlobalIndex("gi_orders_ok"); err != nil || got != g2 {
		t.Error("GI lookup failed")
	}
}

func TestAddViewSchemaAndHelpers(t *testing.T) {
	c := tpcrCatalog(t)
	v := jv2(StrategyAuxRel)
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice", "lineitem.extendedprice"}
	got := v.Schema.Names()
	for i := range wantCols {
		if got[i] != wantCols[i] {
			t.Fatalf("view schema = %v", got)
		}
	}
	if v.PartitionQualified() != "customer.custkey" {
		t.Error("PartitionQualified wrong")
	}
	if !v.HasTable("orders") || v.HasTable("part") {
		t.Error("HasTable wrong")
	}
	if cols := v.JoinCols("orders"); len(cols) != 2 || cols[0] != "custkey" || cols[1] != "orderkey" {
		t.Errorf("JoinCols(orders) = %v", cols)
	}
	if cols := v.JoinCols("customer"); len(cols) != 1 || cols[0] != "custkey" {
		t.Errorf("JoinCols(customer) = %v", cols)
	}
	if js := v.JoinsOf("lineitem"); len(js) != 1 || js[0].Other("lineitem") != "orders" {
		t.Errorf("JoinsOf(lineitem) = %v", js)
	}
	if oc := v.OutColsOf("customer"); len(oc) != 2 || oc[0] != "custkey" {
		t.Errorf("OutColsOf = %v", oc)
	}
	if views := c.ViewsOn("lineitem"); len(views) != 1 || views[0].Name != "jv2" {
		t.Errorf("ViewsOn = %v", views)
	}
	if views := c.ViewsOn("nope"); len(views) != 0 {
		t.Errorf("ViewsOn(nope) = %v", views)
	}
	if names := c.Views(); len(names) != 1 || names[0] != "jv2" {
		t.Errorf("Views() = %v", names)
	}
	if _, err := c.View("jv2"); err != nil {
		t.Error(err)
	}
	if _, err := c.View("ghost"); err == nil {
		t.Error("missing view lookup should fail")
	}
}

func TestAddViewDefaults(t *testing.T) {
	c := tpcrCatalog(t)
	v := &View{
		Name:   "jv1",
		Tables: []string{"customer", "orders"},
		Joins:  []JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
	}
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	// SELECT *: all 5 columns; partition defaults to first output column.
	if v.Schema.Len() != 5 {
		t.Errorf("SELECT * schema = %v", v.Schema.Names())
	}
	if v.PartitionTable != "customer" || v.PartitionCol != "custkey" {
		t.Errorf("default partition = %s.%s", v.PartitionTable, v.PartitionCol)
	}
}

func TestAddViewValidation(t *testing.T) {
	c := tpcrCatalog(t)
	base := func() *View { return jv2(StrategyNaive) }

	v := base()
	v.Tables = []string{"customer"}
	if err := c.AddView(v); err == nil {
		t.Error("single-table view should fail")
	}

	v = base()
	v.Tables = []string{"customer", "customer"}
	if err := c.AddView(v); err == nil {
		t.Error("self-join should fail")
	}

	v = base()
	v.Joins = nil
	if err := c.AddView(v); err == nil {
		t.Error("cartesian product should fail")
	}

	v = base()
	v.Joins = v.Joins[:1] // lineitem disconnected
	if err := c.AddView(v); err == nil {
		t.Error("disconnected join graph should fail")
	}

	v = base()
	v.Joins = append([]JoinPred{}, base().Joins...)
	v.Joins[0].Left = "part"
	if err := c.AddView(v); err == nil {
		t.Error("join on table outside FROM should fail")
	}

	v = base()
	v.Joins = append([]JoinPred{}, base().Joins...)
	v.Joins[0].LeftCol = "nope"
	if err := c.AddView(v); err == nil {
		t.Error("join on unknown column should fail")
	}

	v = base()
	v.Joins = []JoinPred{{Left: "orders", LeftCol: "orderkey", Right: "orders", RightCol: "custkey"}, base().Joins[0], base().Joins[1]}
	if err := c.AddView(v); err == nil {
		t.Error("within-table join predicate should fail")
	}

	v = base()
	v.Out = []OutCol{{"part", "x"}}
	if err := c.AddView(v); err == nil {
		t.Error("output from table outside FROM should fail")
	}

	v = base()
	v.Out = []OutCol{{"customer", "nope"}}
	if err := c.AddView(v); err == nil {
		t.Error("unknown output column should fail")
	}

	v = base()
	v.PartitionTable, v.PartitionCol = "lineitem", "partkey" // not in Out
	if err := c.AddView(v); err == nil {
		t.Error("partition column outside output should fail")
	}

	v = base()
	v.Tables = []string{"customer", "orders", "ghost"}
	if err := c.AddView(v); err == nil {
		t.Error("unknown table should fail")
	}

	if err := c.AddView(base()); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	if err := c.AddView(base()); err == nil {
		t.Error("duplicate view should fail")
	}
}

func TestJoinPredHelpers(t *testing.T) {
	j := JoinPred{Left: "a", LeftCol: "x", Right: "b", RightCol: "y"}
	if j.ColOf("a") != "x" || j.ColOf("b") != "y" || j.ColOf("c") != "" {
		t.Error("ColOf wrong")
	}
	if j.Other("a") != "b" || j.Other("b") != "a" || j.Other("c") != "" {
		t.Error("Other wrong")
	}
}

func TestParseStrategy(t *testing.T) {
	for s, want := range map[string]Strategy{
		"naive": StrategyNaive, "NAIVE": StrategyNaive,
		"auxrel": StrategyAuxRel, "AUXILIARY": StrategyAuxRel,
		"globalindex": StrategyGlobalIndex, "GLOBAL": StrategyGlobalIndex,
		"auto": StrategyAuto,
	} {
		got, err := ParseStrategy(s)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bad strategy should fail")
	}
	for _, s := range []Strategy{StrategyNaive, StrategyAuxRel, StrategyGlobalIndex, StrategyAuto} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestSnapshotHasNoMutators pins the compile-time half of immutability: a
// published *Catalog offers read methods only; every mutator lives on the
// Builder.
func TestSnapshotHasNoMutators(t *testing.T) {
	typ := reflect.TypeOf(&Catalog{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		for _, prefix := range []string{"Add", "Drop", "Ref", "Unref", "Set"} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("*Catalog has mutator %s", name)
			}
		}
	}
	if _, ok := reflect.TypeOf(&Builder{}).MethodByName("AddView"); !ok {
		t.Error("*Builder lacks AddView")
	}
}

// TestBuilderLeavesSnapshotUntouched pins the run-time half: a builder
// derived from snapshot S shares S's objects, and adding an index, refing
// an auxiliary relation and dropping a view on it must not reach S.
func TestBuilderLeavesSnapshotUntouched(t *testing.T) {
	b := tpcrCatalog(t)
	if err := b.AddView(jv2(StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAuxRel(&AuxRel{Name: "ar_orders", Table: "orders", PartitionCol: "custkey"}); err != nil {
		t.Fatal(err)
	}
	b.RefAuxRel("ar_orders", "jv2")
	s := b.Build()
	orders, _ := s.Table("orders")

	next := s.Builder()
	if err := next.AddIndex("orders", Index{Name: "ix_cust", Col: "custkey"}); err != nil {
		t.Fatal(err)
	}
	next.RefAuxRel("ar_orders", "other")
	if err := next.DropView("jv2"); err != nil {
		t.Fatal(err)
	}
	if orphaned := next.UnrefViewAuxRels("jv2"); len(orphaned) != 0 {
		t.Errorf("user-created AR orphaned: %v", orphaned)
	}
	n := next.Build()

	if got, _ := s.Table("orders"); got != orders || len(got.Indexes) != 0 {
		t.Errorf("snapshot's orders table changed: %+v", got)
	}
	if got := s.AuxRelRefs("ar_orders"); !reflect.DeepEqual(got, []string{"jv2"}) {
		t.Errorf("snapshot's AR refs = %v, want [jv2]", got)
	}
	if got := s.Views(); !reflect.DeepEqual(got, []string{"jv2"}) {
		t.Errorf("snapshot's views = %v, want [jv2]", got)
	}
	if got, _ := n.Table("orders"); !got.HasIndexOn("custkey") {
		t.Error("next catalog lacks the new index")
	}
	if got := n.AuxRelRefs("ar_orders"); !reflect.DeepEqual(got, []string{"other"}) {
		t.Errorf("next catalog's AR refs = %v, want [other]", got)
	}
	if len(n.Views()) != 0 {
		t.Errorf("next catalog still has views %v", n.Views())
	}
}

package plan

import (
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/stats"
	"joinview/internal/types"
)

// tpcr builds the paper's schema: customer partitioned on custkey, orders
// on orderkey, lineitem on partkey (so orders needs structures on custkey
// and orderkey-joins, lineitem on orderkey).
func tpcr(t *testing.T) *catalog.Builder {
	t.Helper()
	c := catalog.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddTable(&catalog.Table{
		Name: "customer",
		Schema: types.NewSchema(
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "acctbal", Kind: types.KindFloat},
			types.Column{Name: "comment", Kind: types.KindString},
		),
		PartitionCol: "custkey", ClusterCol: "custkey",
	}))
	must(c.AddTable(&catalog.Table{
		Name: "orders",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "totalprice", Kind: types.KindFloat},
			types.Column{Name: "comment", Kind: types.KindString},
		),
		PartitionCol: "orderkey", ClusterCol: "orderkey",
	}))
	must(c.AddTable(&catalog.Table{
		Name: "lineitem",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "partkey", Kind: types.KindInt},
			types.Column{Name: "extendedprice", Kind: types.KindFloat},
			types.Column{Name: "discount", Kind: types.KindFloat},
		),
		PartitionCol: "partkey",
	}))
	return c
}

func jv2(t *testing.T, c *catalog.Builder, s catalog.Strategy) *catalog.View {
	t.Helper()
	v := &catalog.View{
		Name:   "jv2_" + s.String(),
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
			{Table: "lineitem", Col: "discount"}, {Table: "lineitem", Col: "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: s,
	}
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAuxRelSpecs(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyAuxRel)
	specs, err := AuxRelSpecs(c.Catalog, v)
	if err != nil {
		t.Fatal(err)
	}
	// customer is partitioned on its only join col -> no AR.
	// orders joins on custkey (needs AR) and orderkey (= partition col, no AR).
	// lineitem joins on orderkey != partkey -> AR.
	if len(specs) != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	byName := map[string]catalog.AuxRel{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	ar, ok := byName["ar_orders_custkey"]
	if !ok {
		t.Fatalf("missing ar_orders_custkey in %v", byName)
	}
	// Minimized columns: join cols {custkey, orderkey} + out cols
	// {orderkey, totalprice}, in schema order — comment excluded.
	want := []string{"orderkey", "custkey", "totalprice"}
	if len(ar.Cols) != len(want) {
		t.Fatalf("AR cols = %v, want %v", ar.Cols, want)
	}
	for i := range want {
		if ar.Cols[i] != want[i] {
			t.Fatalf("AR cols = %v, want %v", ar.Cols, want)
		}
	}
	if _, ok := byName["ar_lineitem_orderkey"]; !ok {
		t.Error("missing ar_lineitem_orderkey")
	}
}

func TestGlobalIndexSpecs(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyGlobalIndex)
	specs, err := GlobalIndexSpecs(c.Catalog, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	if !names["gi_orders_custkey"] || !names["gi_lineitem_orderkey"] {
		t.Errorf("specs = %v", names)
	}
}

func TestBuildNaivePlan(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyNaive)
	p, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %+v", p.Steps)
	}
	// Step 1: join orders on custkey — orders not partitioned on custkey,
	// so naive broadcasts.
	s0 := p.Steps[0]
	if s0.Table != "orders" || s0.Via != ViaBroadcast || s0.Frag != "orders" || s0.FragCol != "custkey" || s0.DeltaCol != "customer.custkey" {
		t.Errorf("step 0 = %+v", s0)
	}
	if s0.FragClusteredOnCol {
		t.Error("orders is clustered on orderkey, not custkey")
	}
	// Step 2: join lineitem on orderkey — also broadcast.
	s1 := p.Steps[1]
	if s1.Table != "lineitem" || s1.Via != ViaBroadcast || s1.DeltaCol != "orders.orderkey" {
		t.Errorf("step 1 = %+v", s1)
	}
	// Final schema covers all qualified base columns.
	if p.Schema.ColIndex("lineitem.extendedprice") < 0 || p.Schema.ColIndex("customer.acctbal") < 0 {
		t.Errorf("final schema = %v", p.Schema.Names())
	}
}

func TestBuildAuxRelPlanRequiresStructures(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyAuxRel)
	if _, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyAuxRel); err == nil {
		t.Fatal("plan should fail without ARs")
	}
	specs, _ := AuxRelSpecs(c.Catalog, v)
	for i := range specs {
		if err := c.AddAuxRel(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyAuxRel)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Frag != "ar_orders_custkey" || p.Steps[0].Via != ViaRoute || !p.Steps[0].FragClusteredOnCol {
		t.Errorf("step 0 = %+v", p.Steps[0])
	}
	if p.Steps[1].Frag != "ar_lineitem_orderkey" || p.Steps[1].Via != ViaRoute {
		t.Errorf("step 1 = %+v", p.Steps[1])
	}
	// AR schemas are minimized; final schema still has every output col.
	for _, col := range []string{"orders.totalprice", "lineitem.discount", "lineitem.extendedprice"} {
		if p.Schema.ColIndex(col) < 0 {
			t.Errorf("final schema missing %s: %v", col, p.Schema.Names())
		}
	}
	// But not the excluded ones.
	if p.Schema.ColIndex("orders.comment") >= 0 {
		t.Error("minimized AR leaked orders.comment into the plan")
	}
}

func TestBuildGlobalIndexPlan(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyGlobalIndex)
	if _, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyGlobalIndex); err == nil {
		t.Fatal("plan should fail without GIs")
	}
	specs, _ := GlobalIndexSpecs(c.Catalog, v)
	for i := range specs {
		if err := c.AddGlobalIndex(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyGlobalIndex)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Via != ViaGlobalIndex || p.Steps[0].GI != "gi_orders_custkey" || p.Steps[0].Frag != "orders" {
		t.Errorf("step 0 = %+v", p.Steps[0])
	}
	if p.Steps[0].FragClusteredOnCol {
		t.Error("gi_orders_custkey must be distributed non-clustered")
	}
}

func TestBuildRoutesWhenPartitionedOnJoinCol(t *testing.T) {
	// Updating orders: the other side is customer, which IS partitioned on
	// custkey — every strategy routes directly to the base table.
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyNaive)
	specs, _ := AuxRelSpecs(c.Catalog, v)
	for i := range specs {
		c.AddAuxRel(&specs[i])
	}
	gspecs, _ := GlobalIndexSpecs(c.Catalog, v)
	for i := range gspecs {
		c.AddGlobalIndex(&gspecs[i])
	}
	for _, strat := range []catalog.Strategy{catalog.StrategyNaive, catalog.StrategyAuxRel, catalog.StrategyGlobalIndex} {
		p, err := Build(c.Catalog, stats.New(), v, "orders", strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		var custStep *Step
		for i := range p.Steps {
			if p.Steps[i].Table == "customer" {
				custStep = &p.Steps[i]
			}
		}
		if custStep == nil {
			t.Fatalf("%v: no customer step", strat)
		}
		if custStep.Via != ViaRoute || custStep.Frag != "customer" || !custStep.FragClusteredOnCol {
			t.Errorf("%v: customer step = %+v", strat, *custStep)
		}
	}
}

func TestBuildJoinOrderUsesStats(t *testing.T) {
	c := tpcr(t)
	// A view joining orders to both customer and lineitem: when orders is
	// updated, both joins are immediately available; stats should pick the
	// lower-fanout one first.
	v := jv2(t, c, catalog.StrategyNaive)
	st := stats.New()
	st.Set("customer", stats.TableStats{Rows: 100, Distinct: map[string]int64{"custkey": 100}})   // fanout 1
	st.Set("lineitem", stats.TableStats{Rows: 4000, Distinct: map[string]int64{"orderkey": 100}}) // fanout 40
	p, err := Build(c.Catalog, st, v, "orders", catalog.StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Table != "customer" || p.Steps[1].Table != "lineitem" {
		t.Errorf("join order = %s then %s; want customer then lineitem", p.Steps[0].Table, p.Steps[1].Table)
	}
	if p.EstFanout != 40 {
		t.Errorf("EstFanout = %g, want 40", p.EstFanout)
	}
	// Reversed stats reverse the order.
	st2 := stats.New()
	st2.Set("customer", stats.TableStats{Rows: 1000, Distinct: map[string]int64{"custkey": 10}}) // fanout 100
	st2.Set("lineitem", stats.TableStats{Rows: 100, Distinct: map[string]int64{"orderkey": 100}})
	p2, err := Build(c.Catalog, st2, v, "orders", catalog.StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Steps[0].Table != "lineitem" {
		t.Errorf("join order with reversed stats = %s first", p2.Steps[0].Table)
	}
}

func TestBuildErrors(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyNaive)
	if _, err := Build(c.Catalog, stats.New(), v, "part", catalog.StrategyNaive); err == nil {
		t.Error("planning for a non-member table should fail")
	}
	if _, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyAuto); err == nil {
		t.Error("planning with unresolved auto strategy should fail")
	}
	if _, err := Build(c.Catalog, stats.New(), v, "customer", catalog.Strategy(77)); err == nil {
		t.Error("planning with bogus strategy should fail")
	}
}

func TestDescribe(t *testing.T) {
	c := tpcr(t)
	v := jv2(t, c, catalog.StrategyAuxRel)
	specs, _ := AuxRelSpecs(c.Catalog, v)
	for i := range specs {
		if err := c.AddAuxRel(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Build(c.Catalog, stats.New(), v, "customer", catalog.StrategyAuxRel)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Describe()
	for _, want := range []string{"maintain view", "route", "ar_orders_custkey", "clustered", "step 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	// A cyclic plan mentions its residual filter.
	tri := &catalog.View{
		Name:   "tri",
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
			{Left: "lineitem", LeftCol: "partkey", Right: "customer", RightCol: "custkey"},
		},
		Out:            []catalog.OutCol{{Table: "customer", Col: "custkey"}},
		PartitionTable: "customer", PartitionCol: "custkey",
	}
	if err := c.AddView(tri); err != nil {
		t.Fatal(err)
	}
	pt, err := Build(c.Catalog, stats.New(), tri, "customer", catalog.StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Residual) != 1 {
		t.Fatalf("residual = %v", pt.Residual)
	}
	if !strings.Contains(pt.Describe(), "residual filter") {
		t.Errorf("Describe missing residual:\n%s", pt.Describe())
	}
}

func TestViaStrings(t *testing.T) {
	if ViaBroadcast.String() != "broadcast" || ViaRoute.String() != "route" || ViaGlobalIndex.String() != "global-index" || Via(9).String() != "unknown" {
		t.Error("Via strings wrong")
	}
}

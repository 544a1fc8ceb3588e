package cluster

import (
	"reflect"
	"testing"

	"joinview/internal/catalog"
)

func jv1Spec() QuerySpec {
	return QuerySpec{
		Tables: []string{"customer", "orders"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
		},
	}
}

func TestQueryJoinMatchesView(t *testing.T) {
	c := newTPCR(t, 4, 10, 2, 2)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyNaive)); err != nil {
		t.Fatal(err)
	}
	rows, schema, err := c.QueryJoin(jv1Spec())
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 4 || schema.Names()[0] != "customer.custkey" {
		t.Errorf("schema = %v", schema.Names())
	}
	want, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	if err := bagEqual(rows, want); err != nil {
		t.Fatalf("query vs view: %v (%d vs %d rows)", err, len(rows), len(want))
	}
	// A second run reads the same state and returns the same rows.
	rows2, _, err := c.QueryJoin(jv1Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != len(rows) {
		t.Errorf("second run = %d rows", len(rows2))
	}
}

func TestQueryJoinThreeWay(t *testing.T) {
	c := newTPCR(t, 4, 6, 2, 3)
	spec := QuerySpec{
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"},
			{Table: "orders", Col: "orderkey"},
			{Table: "lineitem", Col: "extendedprice"},
		},
	}
	rows, _, err := c.QueryJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 6 customers × 2 orders × 3 lineitems = 36.
	if len(rows) != 36 {
		t.Fatalf("query returned %d rows, want 36", len(rows))
	}
}

// A query reads and writes nothing: no insert is charged, and no mutating
// request — creating, filling or dropping a fragment — reaches any node's
// write-ahead log, which records every one a node applies.
func TestQueryJoinWritesNothing(t *testing.T) {
	c := newReplicatedTPCR(t, Config{Nodes: 4, Durability: true}, 10, 2, 1)
	logLens := func() []int {
		out := make([]int, len(c.nodes))
		for i, n := range c.nodes {
			out[i] = len(n.RetainedLog())
		}
		return out
	}
	before := logLens()
	c.ResetMetrics()
	rows, _, err := c.QueryJoin(jv1Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 10 customers × 2 orders
		t.Errorf("rows = %d, want 20", len(rows))
	}
	if ins := c.Metrics().Total().Inserts; ins != 0 {
		t.Errorf("QueryJoin charged %d inserts, want 0", ins)
	}
	if after := logLens(); !reflect.DeepEqual(after, before) {
		t.Errorf("write-ahead log records per node: %v before QueryJoin, %v after", before, after)
	}
}

func TestQueryJoinFullWidthDefaultProjection(t *testing.T) {
	c := newTPCR(t, 2, 3, 1, 1)
	spec := jv1Spec()
	spec.Out = nil
	rows, schema, err := c.QueryJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	// customer(2) + orders(3) columns.
	if schema.Len() != 5 {
		t.Errorf("schema = %v", schema.Names())
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestQueryJoinCyclic(t *testing.T) {
	c := triangleCluster(t, catalog.StrategyNaive)
	rows, _, err := c.QueryJoin(QuerySpec{
		Tables: []string{"ta", "tb", "tc"},
		Joins: []catalog.JoinPred{
			{Left: "ta", LeftCol: "x", Right: "tb", RightCol: "x"},
			{Left: "tb", LeftCol: "y", Right: "tc", RightCol: "y"},
			{Left: "tc", LeftCol: "z", Right: "ta", RightCol: "z"},
		},
		Out: []catalog.OutCol{
			{Table: "ta", Col: "pk"}, {Table: "tb", Col: "pk"}, {Table: "tc", Col: "pk"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := refTriangle(t, c)
	if err := bagEqual(rows, want); err != nil {
		t.Fatalf("cyclic query: %v", err)
	}
}

func TestQueryJoinErrors(t *testing.T) {
	c := newTPCR(t, 2, 2, 1, 1)
	if _, _, err := c.QueryJoin(QuerySpec{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, _, err := c.QueryJoin(QuerySpec{Tables: []string{"ghost"}}); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err := c.QueryJoin(QuerySpec{Tables: []string{"customer", "lineitem"}}); err == nil {
		t.Error("disconnected join should fail")
	}
	if _, _, err := c.QueryJoin(QuerySpec{
		Tables: []string{"customer", "orders"},
		Joins:  []catalog.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
		Out:    []catalog.OutCol{{Table: "customer", Col: "ghost"}},
	}); err == nil {
		t.Error("bad projection should fail")
	}
}

// The economics of materialization: scanning the maintained view costs far
// less than recomputing the join, which is the reason the warehouse pays
// the maintenance costs this whole study is about.
func TestViewScanBeatsQueryJoin(t *testing.T) {
	c := newTPCR(t, 4, 20, 2, 1)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	c.ResetMetrics()
	viaQuery, _, err := c.QueryJoin(jv1Spec())
	if err != nil {
		t.Fatal(err)
	}
	queryIOs := c.Metrics().TotalIOs()
	c.ResetMetrics()
	viaView, err := c.ScanFragmentMetered("jv1")
	if err != nil {
		t.Fatal(err)
	}
	viewIOs := c.Metrics().TotalIOs()
	if err := bagEqual(viaQuery, viaView); err != nil {
		t.Fatalf("query and view disagree: %v", err)
	}
	if viewIOs >= queryIOs {
		t.Errorf("view scan (%d I/Os) should beat the join query (%d I/Os)", viewIOs, queryIOs)
	}
}

package cluster

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/types"
)

// triangleCluster builds the paper's §2.2 complete-join example: three
// relations A, B, C where each is joined to the other two (A.x=B.x,
// B.y=C.y, C.z=A.z) — a cyclic join graph. The maintenance plan can only
// chain two of the three predicates; the third must filter the result.
func triangleCluster(t *testing.T, strat catalog.Strategy) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mk := func(name string, cols ...string) *catalog.Table {
		var cc []types.Column
		for _, col := range cols {
			cc = append(cc, types.Column{Name: col, Kind: types.KindInt})
		}
		return &catalog.Table{Name: name, Schema: types.NewSchema(cc...), PartitionCol: "pk"}
	}
	for _, tab := range []*catalog.Table{
		mk("ta", "pk", "x", "z"),
		mk("tb", "pk", "x", "y"),
		mk("tc", "pk", "y", "z"),
	} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	row := func(pk, a, b int64) types.Tuple {
		return types.Tuple{types.Int(pk), types.Int(a), types.Int(b)}
	}
	// Construct data where the 2-predicate chain over-produces: several
	// (x, y) paths exist whose z does NOT close the triangle.
	noErr(t, c.Insert("ta", []types.Tuple{row(1, 10, 100), row(2, 10, 200), row(3, 20, 100)}))
	noErr(t, c.Insert("tb", []types.Tuple{row(1, 10, 50), row(2, 10, 60), row(3, 20, 50)}))
	noErr(t, c.Insert("tc", []types.Tuple{row(1, 50, 100), row(2, 50, 200), row(3, 60, 300)}))
	v := &catalog.View{
		Name:   "tri",
		Tables: []string{"ta", "tb", "tc"},
		Joins: []catalog.JoinPred{
			{Left: "ta", LeftCol: "x", Right: "tb", RightCol: "x"},
			{Left: "tb", LeftCol: "y", Right: "tc", RightCol: "y"},
			{Left: "tc", LeftCol: "z", Right: "ta", RightCol: "z"}, // closes the cycle
		},
		Out: []catalog.OutCol{
			{Table: "ta", Col: "pk"}, {Table: "tb", Col: "pk"}, {Table: "tc", Col: "pk"},
		},
		PartitionTable: "ta", PartitionCol: "pk",
		Strategy: strat,
	}
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	return c
}

// refTriangle computes the triangle join by brute force.
func refTriangle(t *testing.T, c *Cluster) []types.Tuple {
	t.Helper()
	ta, _ := c.TableRows("ta")
	tb, _ := c.TableRows("tb")
	tc2, _ := c.TableRows("tc")
	var out []types.Tuple
	for _, a := range ta {
		for _, b := range tb {
			if !types.Equal(a[1], b[1]) { // x
				continue
			}
			for _, cc := range tc2 {
				if types.Equal(b[2], cc[1]) && types.Equal(cc[2], a[2]) { // y, z
					out = append(out, types.Tuple{a[0], b[0], cc[0]})
				}
			}
		}
	}
	return out
}

func TestCyclicViewInitialMaterialization(t *testing.T) {
	c := triangleCluster(t, catalog.StrategyNaive)
	got, err := c.ViewRows("tri")
	if err != nil {
		t.Fatal(err)
	}
	want := refTriangle(t, c)
	if err := bagEqual(got, want); err != nil {
		t.Fatalf("initial triangle content: %v (got %d, want %d)", err, len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test data should produce at least one closed triangle")
	}
	// And there must exist an open path (x,y match, z doesn't) that the
	// residual predicate filtered — otherwise the test proves nothing.
	open := 0
	ta, _ := c.TableRows("ta")
	tb, _ := c.TableRows("tb")
	tc2, _ := c.TableRows("tc")
	for _, a := range ta {
		for _, b := range tb {
			if !types.Equal(a[1], b[1]) {
				continue
			}
			for _, cc := range tc2 {
				if types.Equal(b[2], cc[1]) && !types.Equal(cc[2], a[2]) {
					open++
				}
			}
		}
	}
	if open == 0 {
		t.Fatal("data has no open paths: residual filtering untested")
	}
}

func TestCyclicViewMaintenanceAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := triangleCluster(t, strat)
			// Updates on every relation, including tuples that extend
			// open paths only (must not reach the view).
			noErr(t, c.Insert("ta", []types.Tuple{
				{types.Int(10), types.Int(10), types.Int(300)}, // closes with tb(2)/tc(3)
				{types.Int(11), types.Int(10), types.Int(999)}, // open path only
			}))
			noErr(t, c.Insert("tb", []types.Tuple{
				{types.Int(10), types.Int(20), types.Int(50)},
			}))
			noErr(t, c.Insert("tc", []types.Tuple{
				{types.Int(10), types.Int(60), types.Int(100)},
			}))
			if _, err := c.Delete("tb", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "pk"}, R: expr.Const{V: types.Int(1)}}); err != nil {
				t.Fatal(err)
			}
			got, err := c.ViewRows("tri")
			if err != nil {
				t.Fatal(err)
			}
			want := refTriangle(t, c)
			if err := bagEqual(got, want); err != nil {
				t.Fatalf("triangle after updates: %v (got %d, want %d)", err, len(got), len(want))
			}
			if err := c.CheckViewConsistency("tri"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A delta that finds no partner at the first step of a cyclic view's chain
// leaves the view untouched; the statement must not fail on the residual
// predicate, whose columns the stopped chain never reached.
func TestCyclicViewDeltaWithoutPartners(t *testing.T) {
	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			c := triangleCluster(t, strat)
			noErr(t, c.Insert("ta", []types.Tuple{{types.Int(20), types.Int(77), types.Int(100)}})) // no tb.x = 77
			noErr(t, c.Insert("tc", []types.Tuple{{types.Int(20), types.Int(77), types.Int(100)}})) // no tb.y = 77
			if err := c.CheckViewConsistency("tri"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

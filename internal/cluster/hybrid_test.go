package cluster

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/types"
)

// The conclusion's hybrid scheme: one view can use different maintenance
// methods depending on which base relation is updated.
func TestHybridStrategyOverrides(t *testing.T) {
	c := newTPCR(t, 8, 12, 2, 1)
	v := jv1Def("jv1", catalog.StrategyNaive)
	v.Overrides = map[string]catalog.Strategy{"customer": catalog.StrategyAuxRel}
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	// EnsureStructures must have created the AR the override needs.
	if _, ok := c.cat.AuxRelOn("orders", "custkey", nil); !ok {
		t.Fatal("override should have created the orders AR")
	}

	// Customer updates resolve to the AR method...
	got, err := c.ResolveStrategy(v, "customer", 1)
	if err != nil || got != catalog.StrategyAuxRel {
		t.Errorf("customer strategy = %v, %v; want auxrel", got, err)
	}
	// ...orders updates fall back to the view default.
	got, err = c.ResolveStrategy(v, "orders", 1)
	if err != nil || got != catalog.StrategyNaive {
		t.Errorf("orders strategy = %v, %v; want naive", got, err)
	}

	// Work distribution reflects the split: a customer insert probes one
	// node, an orders insert probes all nodes (customer is partitioned on
	// the join attribute, so naive routes — use a broadcast-y case by
	// checking I/O instead).
	c.ResetMetrics()
	if err := c.Insert("customer", []types.Tuple{cust(3, 1)}); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, nc := range c.Metrics().Node {
		if nc.Searches+nc.Fetches > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("hybrid customer insert probed %d nodes, want 1", busy)
	}
	if err := c.Insert("orders", []types.Tuple{ord(999, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	for _, vn := range []string{"jv1"} {
		if err := c.CheckViewConsistency(vn); err != nil {
			t.Fatal(err)
		}
	}
}

// An orders insert into customer ⋈ orders probes customer on custkey, its
// partitioning attribute: every option of an auto view compiles to the
// same routed step (paper case 1). The chooser prices steps by Via and
// treats the upkeep of orders' own structures as sunk (the pipeline runs
// them whatever the view picks), so the options tie and the first one,
// auxrel, stays — at any L, and in agreement with the DAG EXPLAIN renders.
func TestResolveStrategyTiesOnIdenticalRoutedPlans(t *testing.T) {
	for _, l := range []int{1, 2, 4} {
		c, err := New(Config{Nodes: l})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		orders := ordersTable()
		orders.Indexes = []catalog.Index{{Name: "ix_oc", Col: "custkey"}}
		for _, tab := range []*catalog.Table{customerTable(), orders} {
			if err := c.CreateTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		var custs, ords []types.Tuple
		for k := int64(0); k < 8; k++ {
			custs = append(custs, cust(k, float64(k)))
			ords = append(ords, ord(2*k, k, 1), ord(2*k+1, (k+3)%10, 2))
		}
		if err := c.Insert("customer", custs); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("orders", ords); err != nil {
			t.Fatal(err)
		}
		v := jv1Def("jv", catalog.StrategyAuto)
		if err := c.CreateView(v); err != nil {
			t.Fatal(err)
		}
		got, err := c.ResolveStrategy(v, "orders", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != catalog.StrategyAuxRel {
			t.Errorf("L=%d: orders insert resolved to %v, want auxrel", l, got)
		}
		mp, err := mplan.Compile(c.cat, c.st, "orders", maintain.OpInsert)
		if err != nil {
			t.Fatal(err)
		}
		if _, chosen := mp.DAG(l, 1); len(chosen) != 1 || chosen[0] != got {
			t.Errorf("L=%d: DAG chose %v, ResolveStrategy %v", l, chosen, got)
		}
	}
}

func TestOverrideValidation(t *testing.T) {
	c := newTPCR(t, 2, 2, 1, 1)
	v := jv1Def("bad", catalog.StrategyNaive)
	v.Overrides = map[string]catalog.Strategy{"part": catalog.StrategyAuxRel}
	if err := c.CreateView(v); err == nil {
		t.Error("override for a table outside the view should fail")
	}
}

func TestStrategyFor(t *testing.T) {
	v := jv1Def("x", catalog.StrategyNaive)
	if v.StrategyFor("customer") != catalog.StrategyNaive {
		t.Error("no override should use default")
	}
	v.Overrides = map[string]catalog.Strategy{"customer": catalog.StrategyGlobalIndex}
	if v.StrategyFor("customer") != catalog.StrategyGlobalIndex {
		t.Error("override ignored")
	}
	if v.StrategyFor("orders") != catalog.StrategyNaive {
		t.Error("non-overridden table should use default")
	}
}

// Deletions cost the same order of work as insertions per method (§2:
// "the steps needed when a tuple is deleted from or updated in the base
// relation A are similar to those needed in the case of insertion").
func TestDeleteCostSymmetry(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newTPCR(t, 8, 12, 2, 1)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			// Insert one matching customer, measure.
			c.ResetMetrics()
			if err := c.Insert("customer", []types.Tuple{cust(3, 77)}); err != nil {
				t.Fatal(err)
			}
			insertIOs := c.Metrics().TotalIOs()
			// Delete it again, measure.
			c.ResetMetrics()
			pred := expr.And{Terms: []expr.Expr{
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(3)}},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "acctbal"}, R: expr.Const{V: types.Float(77)}},
			}}
			if _, err := c.Delete("customer", pred); err != nil {
				t.Fatal(err)
			}
			deleteIOs := c.Metrics().TotalIOs()
			if deleteIOs <= 0 {
				t.Fatal("delete charged nothing")
			}
			// Within 4x either way (victim location scans add a bit).
			if deleteIOs > insertIOs*4 || insertIOs > deleteIOs*4 {
				t.Errorf("insert %d I/Os vs delete %d I/Os: not symmetric", insertIOs, deleteIOs)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

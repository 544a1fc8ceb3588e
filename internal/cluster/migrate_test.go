package cluster

import (
	"errors"
	"fmt"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// newElasticCluster builds a loaded 4-node cluster with a jv1 view under
// the given strategy, returning the expected view contents.
func newElasticCluster(t *testing.T, strat catalog.Strategy) (*Cluster, []types.Tuple) {
	t.Helper()
	c := newTPCR(t, 4, 12, 2, 1)
	if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
		t.Fatal(err)
	}
	want, err := c.RecomputeView("jv1")
	if err != nil {
		t.Fatal(err)
	}
	return c, want
}

// assertElasticConsistent checks every invariant a migration must
// preserve: view == recomputed join, auxiliary structures consistent and
// placed at their (current-map) homes.
func assertElasticConsistent(t *testing.T, c *Cluster, label string) {
	t.Helper()
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("%s: view inconsistent: %v", label, err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatalf("%s: structures inconsistent: %v", label, err)
	}
}

// nodeRows scans one node's fragment directly (test-only backdoor).
func nodeRows(t *testing.T, c *Cluster, n int, frag string) []types.Tuple {
	t.Helper()
	resp, err := c.rawCall(n, node.Scan{Frag: frag, Unmetered: true})
	if err != nil {
		t.Fatalf("scan node %d frag %s: %v", n, frag, err)
	}
	return resp.(node.RowsResult).Tuples
}

// TestAddNodeMovesData expands 4 → 5 nodes under each maintenance
// strategy and checks that data moved, nothing was lost, and every
// derived structure sits at its new-map home.
func TestAddNodeMovesData(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c, wantView := newElasticCluster(t, strat)
			wantOrders, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			epoch0 := c.Topology().Epoch

			dst, err := c.AddNode()
			if err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			if dst != 4 {
				t.Fatalf("AddNode returned %d, want 4", dst)
			}
			if got := c.NumNodes(); got != 5 {
				t.Fatalf("NumNodes = %d, want 5", got)
			}

			top := c.Topology()
			if top.Epoch <= epoch0 {
				t.Fatalf("epoch did not advance: %d -> %d", epoch0, top.Epoch)
			}
			if top.InFlight != nil {
				t.Fatalf("migration still in flight: %+v", top.InFlight)
			}
			owned := 0
			for _, o := range top.SlotOwner {
				if o == 4 {
					owned++
				}
			}
			if owned == 0 {
				t.Fatal("new node owns no hash slots")
			}

			stats, ok := c.LastMigration()
			if !ok || !stats.Committed {
				t.Fatalf("LastMigration = %+v, ok=%v, want committed", stats, ok)
			}
			if stats.RowsCopied == 0 || stats.PagesCopied == 0 || stats.Envelopes == 0 {
				t.Fatalf("migration moved nothing: %+v", stats)
			}

			got, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "orders after expansion", got, wantOrders)
			view, err := c.ViewRows("jv1")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "jv1 after expansion", view, wantView)
			assertElasticConsistent(t, c, "after expansion")

			// The new node holds its share of at least one relation.
			moved := 0
			for _, frag := range []string{"customer", "orders", "lineitem", "jv1"} {
				moved += len(nodeRows(t, c, 4, frag))
			}
			if moved == 0 {
				t.Fatal("node 4 holds no rows after rebalance")
			}
		})
	}
}

// TestDMLAfterExpansion checks that inserts, deletes and updates keep the
// view maintainable after the topology change, and that new rows route to
// the new node when their slot lives there.
func TestDMLAfterExpansion(t *testing.T) {
	c, _ := newElasticCluster(t, catalog.StrategyAuxRel)
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}

	before4 := len(nodeRows(t, c, 4, "orders"))
	var batch []types.Tuple
	for k := int64(1000); k < 1100; k++ {
		batch = append(batch, ord(k, k%12, float64(k)))
	}
	if err := c.Insert("orders", batch); err != nil {
		t.Fatalf("insert after expansion: %v", err)
	}
	if after4 := len(nodeRows(t, c, 4, "orders")); after4 <= before4 {
		t.Fatalf("node 4 orders %d -> %d: new rows never route to the new node", before4, after4)
	}
	if _, err := c.Delete("orders",
		expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(1005)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("orders",
		map[string]types.Value{"totalprice": types.Float(9.5)},
		expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(1006)}}); err != nil {
		t.Fatal(err)
	}
	assertElasticConsistent(t, c, "after post-expansion DML")
}

// TestDecommissionNode drains a node and checks its data survives on the
// survivors, it owns nothing afterwards, and DML still works.
func TestDecommissionNode(t *testing.T) {
	c, wantView := newElasticCluster(t, catalog.StrategyGlobalIndex)
	wantOrders, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	if err := c.DecommissionNode(3); err != nil {
		t.Fatalf("DecommissionNode: %v", err)
	}
	top := c.Topology()
	for s, o := range top.SlotOwner {
		if o == 3 {
			t.Fatalf("slot %d still owned by decommissioned node 3", s)
		}
	}
	if len(top.Retired) != 1 || top.Retired[0] != 3 {
		t.Fatalf("Retired = %v, want [3]", top.Retired)
	}
	for _, frag := range []string{"customer", "orders", "lineitem", "jv1"} {
		if n := len(nodeRows(t, c, 3, frag)); n != 0 {
			t.Fatalf("node 3 still holds %d rows of %s", n, frag)
		}
	}

	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after drain", got, wantOrders)
	view, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "jv1 after drain", view, wantView)
	assertElasticConsistent(t, c, "after drain")

	if err := c.Insert("orders", []types.Tuple{ord(2000, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if n := len(nodeRows(t, c, 3, "orders")); n != 0 {
		t.Fatalf("retired node 3 received %d new rows", n)
	}
	assertElasticConsistent(t, c, "after post-drain DML")
}

// TestExpandThenDrainRoundTrip grows 4 → 5, then drains the newcomer
// again: the cluster ends consistent with all data back on nodes 0–3.
func TestExpandThenDrainRoundTrip(t *testing.T) {
	c, wantView := newElasticCluster(t, catalog.StrategyAuxRel)
	// Compiled plans price their methods at the node count of the
	// catalog's partition map: it must track the cluster's.
	assertMapNodes := func(when string) {
		t.Helper()
		if pm, _ := c.Catalog().PartitionMap(); pm.Nodes != c.NumNodes() {
			t.Fatalf("%s: catalog partition map has %d nodes, cluster %d", when, pm.Nodes, c.NumNodes())
		}
	}
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	assertMapNodes("after AddNode")
	if err := c.DecommissionNode(4); err != nil {
		t.Fatal(err)
	}
	assertMapNodes("after DecommissionNode")
	view, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "jv1 after round trip", view, wantView)
	assertElasticConsistent(t, c, "after round trip")
	for _, frag := range []string{"customer", "orders", "lineitem", "jv1"} {
		if n := len(nodeRows(t, c, 4, frag)); n != 0 {
			t.Fatalf("drained node 4 still holds %d rows of %s", n, frag)
		}
	}
}

// TestRebalanceUnretiresNode drains node 3 and then rebalances back onto
// it: a node that owns slots again must not stay listed as retired (which
// skewed every later fair-share computation and let a following drain pick
// it as a "retired" destination).
func TestRebalanceUnretiresNode(t *testing.T) {
	c, wantView := newElasticCluster(t, catalog.StrategyAuxRel)
	if err := c.DecommissionNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RebalanceNode(3); err != nil {
		t.Fatal(err)
	}
	top := c.Topology()
	owned := map[int]int{}
	for _, o := range top.SlotOwner {
		owned[o]++
	}
	if owned[3] == 0 || len(top.Retired) != 0 {
		t.Fatalf("after rebalancing onto node 3: owns %d slots, Retired = %v, want a share and none retired", owned[3], top.Retired)
	}
	if got := c.numRetired(); got != 0 {
		t.Fatalf("numRetired = %d, want 0", got)
	}
	assertElasticConsistent(t, c, "after decommission + rebalance")

	// The next drain computes its fair shares over four active nodes again.
	if err := c.DecommissionNode(2); err != nil {
		t.Fatal(err)
	}
	top = c.Topology()
	if len(top.Retired) != 1 || top.Retired[0] != 2 {
		t.Fatalf("Retired = %v, want [2]", top.Retired)
	}
	owned = map[int]int{}
	for _, o := range top.SlotOwner {
		owned[o]++
	}
	if owned[2] != 0 || owned[3] == 0 {
		t.Fatalf("slot ownership after draining node 2: %v", owned)
	}
	view, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "jv1 after drain/rebalance/drain", view, wantView)
	assertElasticConsistent(t, c, "after second drain")
}

// TestMigrationCostMetrics sanity-checks the cost accounting: stats are
// monotone, the copy bill is coherent, and Topology idles correctly.
func TestMigrationCostMetrics(t *testing.T) {
	c, _ := newElasticCluster(t, catalog.StrategyAuxRel)
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	st, ok := c.LastMigration()
	if !ok {
		t.Fatal("no migration recorded")
	}
	if st.Epoch == 0 || !st.Committed {
		t.Fatalf("stats epoch/committed wrong: %+v", st)
	}
	if len(st.Slots) == 0 || len(st.Dsts) != 1 || st.Dsts[0] != 4 {
		t.Fatalf("stats slots/dsts wrong: %+v", st)
	}
	if st.Elapsed <= 0 || st.CutoverStall <= 0 || st.CutoverStall > st.Elapsed {
		t.Fatalf("stats timing wrong: %+v", st)
	}
	// Every copied row is read once at its source and written once at its
	// destination, in whole pages per shipped batch.
	if st.Envelopes <= 0 || st.RowsCopied <= 0 || st.PagesCopied < 2*c.pageCount(int(st.RowsCopied)) {
		t.Fatalf("stats copy bill wrong: %+v", st)
	}
}

// TestDDLRefusedDuringMigration verifies the failIfMigrating guard wiring
// (unit-level: with a registered in-flight migration, DDL entry points
// refuse with ErrMigration).
func TestDDLRefusedDuringMigration(t *testing.T) {
	c, _ := newElasticCluster(t, catalog.StrategyNaive)
	c.migMu.Lock()
	c.mig = &migration{id: 99, phase: "copy:orders", moves: map[int]migMove{}}
	c.migMu.Unlock()
	defer func() {
		c.migMu.Lock()
		c.mig = nil
		c.migMu.Unlock()
	}()
	if err := c.CreateTable(&catalog.Table{Name: "t2"}); !errors.Is(err, ErrMigration) {
		t.Fatalf("CreateTable during migration: %v, want ErrMigration", err)
	}
	if err := c.DropTable("lineitem"); !errors.Is(err, ErrMigration) {
		t.Fatalf("DropTable during migration: %v, want ErrMigration", err)
	}
	if err := c.CreateView(jv2Def("jv2", catalog.StrategyAuxRel)); !errors.Is(err, ErrMigration) {
		t.Fatalf("CreateView during migration: %v, want ErrMigration", err)
	}
}

// TestPlanCacheInvalidatedByMigration checks that compiled maintenance
// plans recompile after a partition-map epoch bump: the plan compiled
// before the expansion must not route tuples with the old map.
func TestPlanCacheInvalidatedByMigration(t *testing.T) {
	c, _ := newElasticCluster(t, catalog.StrategyAuxRel)
	// Warm the plan cache.
	if err := c.Insert("orders", []types.Tuple{ord(3000, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	warm := c.Metrics().Pipeline
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	// This statement must recompile (miss), not reuse the stale plan.
	if err := c.Insert("orders", []types.Tuple{ord(3001, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics().Pipeline
	if after.PlanCacheMisses <= warm.PlanCacheMisses {
		t.Fatalf("plan cache misses %d -> %d: stale plan survived the epoch bump",
			warm.PlanCacheMisses, after.PlanCacheMisses)
	}
	assertElasticConsistent(t, c, "after cached-plan DML")
}

// TestAddNodeTwice grows 4 → 6 in two steps: each expansion must start
// from the previous map and keep everything consistent.
func TestAddNodeTwice(t *testing.T) {
	c, wantView := newElasticCluster(t, catalog.StrategyGlobalIndex)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatalf("AddNode #%d: %v", i+1, err)
		}
	}
	if got := c.NumNodes(); got != 6 {
		t.Fatalf("NumNodes = %d, want 6", got)
	}
	view, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "jv1 after double expansion", view, wantView)
	assertElasticConsistent(t, c, "after double expansion")
}

// TestTopologyString sanity-checks the Topology snapshot shape used by
// jvshell's \topology command.
func TestTopologyShape(t *testing.T) {
	c := newTPCR(t, 4, 2, 1, 1)
	top := c.Topology()
	if top.Nodes != 4 || len(top.SlotOwner) != 4 {
		t.Fatalf("fresh topology = %+v", top)
	}
	if top.Epoch != 0 || top.InFlight != nil || len(top.Retired) != 0 {
		t.Fatalf("fresh topology not idle: %+v", top)
	}
	for s, o := range top.SlotOwner {
		if s != o {
			t.Fatalf("identity map broken: slot %d -> node %d", s, o)
		}
	}
	_ = fmt.Sprintf("%+v", top)
}

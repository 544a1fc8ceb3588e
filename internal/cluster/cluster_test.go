package cluster

import (
	"fmt"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// Schemas mirroring the paper's §3.3 test relations (trimmed).
func customerTable() *catalog.Table {
	return &catalog.Table{
		Name: "customer",
		Schema: types.NewSchema(
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "acctbal", Kind: types.KindFloat},
		),
		PartitionCol: "custkey",
	}
}

func ordersTable() *catalog.Table {
	return &catalog.Table{
		Name: "orders",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "totalprice", Kind: types.KindFloat},
		),
		PartitionCol: "orderkey",
		Indexes:      []catalog.Index{{Name: "ix_orders_cust", Col: "custkey"}},
	}
}

func lineitemTable() *catalog.Table {
	return &catalog.Table{
		Name: "lineitem",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "linenum", Kind: types.KindInt},
			types.Column{Name: "extendedprice", Kind: types.KindFloat},
		),
		PartitionCol: "linenum",
		Indexes:      []catalog.Index{{Name: "ix_li_ok", Col: "orderkey"}},
	}
}

func cust(k int64, bal float64) types.Tuple {
	return types.Tuple{types.Int(k), types.Float(bal)}
}

func ord(ok, ck int64, price float64) types.Tuple {
	return types.Tuple{types.Int(ok), types.Int(ck), types.Float(price)}
}

func li(ok, ln int64, price float64) types.Tuple {
	return types.Tuple{types.Int(ok), types.Int(ln), types.Float(price)}
}

// newTPCR builds a cluster with the three tables loaded: nCust customers,
// each with ordersPer orders, each order with linesPer lineitems.
func newTPCR(t *testing.T, nodes, nCust, ordersPer, linesPer int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var customers, orders, lines []types.Tuple
	ok := int64(0)
	ln := int64(0)
	for ck := int64(0); ck < int64(nCust); ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < ordersPer; o++ {
			ok++
			orders = append(orders, ord(ok, ck, float64(ok)*10))
			for l := 0; l < linesPer; l++ {
				ln++
				lines = append(lines, li(ok, ln, float64(ln)))
			}
		}
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("lineitem", lines); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func jv1Def(name string, s catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:   name,
		Tables: []string{"customer", "orders"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: s,
	}
}

func jv2Def(name string, s catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:   name,
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
			{Table: "lineitem", Col: "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: s,
	}
}

var allStrategies = []catalog.Strategy{catalog.StrategyNaive, catalog.StrategyAuxRel, catalog.StrategyGlobalIndex}

func TestCreateViewMaterializesInitialContent(t *testing.T) {
	c := newTPCR(t, 4, 10, 2, 3)
	v := jv1Def("jv1", catalog.StrategyNaive)
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	rows, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	// 10 customers x 2 orders = 20 join tuples.
	if len(rows) != 20 {
		t.Fatalf("initial view has %d rows, want 20", len(rows))
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMaintainsViewAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newTPCR(t, 4, 8, 2, 2)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateView(jv2Def("jv2", strat)); err != nil {
				t.Fatal(err)
			}
			// Insert new customers that match existing orders, plus one
			// with no matches.
			if err := c.Insert("customer", []types.Tuple{cust(3, 99), cust(100, 1)}); err != nil {
				t.Fatal(err)
			}
			// Insert orders matching existing and new customers.
			if err := c.Insert("orders", []types.Tuple{ord(1000, 3, 5), ord(1001, 100, 6), ord(1002, 777, 7)}); err != nil {
				t.Fatal(err)
			}
			// Insert lineitems for old and new orders.
			if err := c.Insert("lineitem", []types.Tuple{li(1000, 9000, 1), li(1, 9001, 2), li(9999, 9002, 3)}); err != nil {
				t.Fatal(err)
			}
			for _, vn := range []string{"jv1", "jv2"} {
				if err := c.CheckViewConsistency(vn); err != nil {
					t.Errorf("%s after inserts: %v", vn, err)
				}
			}
		})
	}
}

func TestDeleteMaintainsViewAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newTPCR(t, 4, 8, 2, 2)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateView(jv2Def("jv2", strat)); err != nil {
				t.Fatal(err)
			}
			// Delete a customer (cascades through both views' contents).
			del, err := c.Delete("customer", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(3)}})
			if err != nil {
				t.Fatal(err)
			}
			if len(del) != 1 {
				t.Fatalf("deleted %d customers, want 1", len(del))
			}
			// Delete some orders.
			if _, err := c.Delete("orders", expr.Cmp{Op: expr.LT, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(4)}}); err != nil {
				t.Fatal(err)
			}
			// Delete lineitems.
			if _, err := c.Delete("lineitem", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(10)}}); err != nil {
				t.Fatal(err)
			}
			for _, vn := range []string{"jv1", "jv2"} {
				if err := c.CheckViewConsistency(vn); err != nil {
					t.Errorf("%s after deletes: %v", vn, err)
				}
			}
			// Deleting nothing is fine.
			none, err := c.Delete("customer", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(123456)}})
			if err != nil || none != nil {
				t.Errorf("empty delete = %v, %v", none, err)
			}
		})
	}
}

func TestUpdateMaintainsViewAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newTPCR(t, 4, 6, 2, 2)
			if err := c.CreateView(jv2Def("jv2", strat)); err != nil {
				t.Fatal(err)
			}
			// Non-key update: changes view payload columns.
			n, err := c.Update("customer",
				map[string]types.Value{"acctbal": types.Float(-1)},
				expr.Cmp{Op: expr.LT, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(3)}})
			if err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("updated %d customers, want 3", n)
			}
			// Join-key update: moves orders between customers.
			if _, err := c.Update("orders",
				map[string]types.Value{"custkey": types.Int(0)},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(5)}}); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckViewConsistency("jv2"); err != nil {
				t.Fatal(err)
			}
			// Update with unknown column fails cleanly.
			if _, err := c.Update("customer", map[string]types.Value{"zzz": types.Int(1)}, expr.True); err == nil {
				t.Error("update of unknown column should fail")
			}
			// Update matching nothing.
			n, err = c.Update("customer", map[string]types.Value{"acctbal": types.Float(0)},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(99999)}})
			if err != nil || n != 0 {
				t.Errorf("empty update = %d, %v", n, err)
			}
		})
	}
}

// The paper's §2.1.2 claim: with the AR method, each inserted tuple's
// maintenance work happens at one node (plus the view write), while the
// naive method does work at every node.
func TestWorkDistributionPerStrategy(t *testing.T) {
	const nodes = 8
	type result struct {
		busyNodes int
		totalIOs  int64
	}
	run := func(strat catalog.Strategy) result {
		c := newTPCR(t, nodes, 16, 2, 1)
		if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
			t.Fatal(err)
		}
		c.ResetMetrics()
		// custkey 3 already has 2 matching orders, so the join step does
		// real work under every method.
		if err := c.Insert("customer", []types.Tuple{cust(3, 1)}); err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		busy := 0
		for _, nc := range m.Node {
			// Exclude the base-table insert and view write (both
			// single-node) by counting nodes that performed searches,
			// fetches or scans — the join work.
			if nc.Searches+nc.Fetches+nc.ScanPages+nc.SortPages > 0 {
				busy++
			}
		}
		return result{busyNodes: busy, totalIOs: m.TotalIOs()}
	}
	naive := run(catalog.StrategyNaive)
	aux := run(catalog.StrategyAuxRel)
	gi := run(catalog.StrategyGlobalIndex)

	if naive.busyNodes != nodes {
		t.Errorf("naive method should probe all %d nodes, probed %d", nodes, naive.busyNodes)
	}
	if aux.busyNodes != 1 {
		t.Errorf("AR method should probe exactly 1 node, probed %d", aux.busyNodes)
	}
	// GI: home-node search + K fetch nodes; with fan-out 2 this is <= 3.
	if gi.busyNodes < 1 || gi.busyNodes > 3 {
		t.Errorf("GI method should probe few nodes, probed %d", gi.busyNodes)
	}
	if !(aux.totalIOs < gi.totalIOs && gi.totalIOs < naive.totalIOs) {
		t.Errorf("TW ordering violated: AR=%d, GI=%d, naive=%d", aux.totalIOs, gi.totalIOs, naive.totalIOs)
	}
}

func TestAutoStrategyResolution(t *testing.T) {
	c := newTPCR(t, 8, 16, 2, 1)
	v := jv1Def("jv1", catalog.StrategyAuto)
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	// Auto creates both ARs and GIs.
	if _, ok := c.Catalog().AuxRelOn("orders", "custkey", nil); !ok {
		t.Error("auto view should have created the orders AR")
	}
	if _, ok := c.Catalog().GlobalIndexOn("orders", "custkey"); !ok {
		t.Error("auto view should have created the orders GI")
	}
	// Customer updates compile to the AR method.
	if strat := compiledStrategy(t, c, "jv1", "customer"); strat != catalog.StrategyAuxRel {
		t.Errorf("auto for customer updates = %v, want auxrel", strat)
	}
	// And the full DML path stays consistent.
	if err := c.Insert("customer", []types.Tuple{cust(1000, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRollbackOnViewFailure(t *testing.T) {
	c := newTPCR(t, 4, 4, 1, 1)
	v := jv1Def("jv1", catalog.StrategyAuxRel)
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	before, err := c.TableRows("customer")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: make the plan unbuildable by switching the view to a
	// strategy with no structures. GI structures were never created.
	v.Strategy = catalog.StrategyGlobalIndex
	err = c.Insert("customer", []types.Tuple{cust(700, 1)})
	if err == nil {
		t.Fatal("insert should fail without GI structures")
	}
	after, err := c.TableRows("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("base insert not rolled back: %d rows vs %d", len(after), len(before))
	}
	// Restore and verify the system still works.
	v.Strategy = catalog.StrategyAuxRel
	if err := c.Insert("customer", []types.Tuple{cust(700, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

func TestChannelTransportEquivalence(t *testing.T) {
	// The channel transport must produce the same view contents and the
	// same total I/O as the deterministic transport.
	runIOs := func(useChan bool) (int64, int) {
		cfg := Config{Nodes: 4, UseChannels: useChan}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, tab := range []*catalog.Table{customerTable(), ordersTable()} {
			if err := c.CreateTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		var orders []types.Tuple
		for i := int64(0); i < 40; i++ {
			orders = append(orders, ord(i, i%10, 1))
		}
		if err := c.Insert("orders", orders); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
			t.Fatal(err)
		}
		c.ResetMetrics()
		var customers []types.Tuple
		for i := int64(0); i < 10; i++ {
			customers = append(customers, cust(i, 2))
		}
		if err := c.Insert("customer", customers); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckViewConsistency("jv1"); err != nil {
			t.Fatal(err)
		}
		rows, _ := c.ViewRows("jv1")
		return c.Metrics().TotalIOs(), len(rows)
	}
	directIOs, directRows := runIOs(false)
	chanIOs, chanRows := runIOs(true)
	if directIOs != chanIOs {
		t.Errorf("transport changed total I/O: direct=%d chan=%d", directIOs, chanIOs)
	}
	if directRows != chanRows || directRows != 40 {
		t.Errorf("view rows: direct=%d chan=%d, want 40", directRows, chanRows)
	}
}

func TestMetricsArithmetic(t *testing.T) {
	c := newTPCR(t, 2, 2, 1, 1)
	m1 := c.Metrics()
	if err := c.Insert("customer", []types.Tuple{cust(50, 0)}); err != nil {
		t.Fatal(err)
	}
	m2 := c.Metrics()
	d := m2.Sub(m1)
	if d.TotalIOs() <= 0 {
		t.Error("insert should cost I/O")
	}
	if d.MaxNodeIOs() <= 0 || d.MaxNodeIOs() > d.TotalIOs() {
		t.Error("MaxNodeIOs out of range")
	}
	if d.Total().Inserts < 1 {
		t.Error("Total() lost inserts")
	}
	c.ResetMetrics()
	if c.Metrics().TotalIOs() != 0 {
		t.Error("ResetMetrics failed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
	c, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	if c.NumNodes() != 1 || cfg.JoinAlgo != node.AlgoAuto || cfg.RetryAttempts != 3 ||
		cfg.PageRows != storage.DefaultPageRows {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if m := c.nodes[0].MemPages(); m != 10 {
		t.Errorf("node sort memory M = %d pages, want the paper's 10", m)
	}
	if c.Catalog() == nil || c.Stats() == nil || c.Transport() == nil {
		t.Error("accessors returned nil")
	}
}

func TestViewRowsErrors(t *testing.T) {
	c := newTPCR(t, 2, 2, 1, 1)
	if _, err := c.ViewRows("ghost"); err == nil {
		t.Error("ViewRows on missing view should fail")
	}
	if _, err := c.RecomputeView("ghost"); err == nil {
		t.Error("RecomputeView on missing view should fail")
	}
	if err := c.RefreshStats("ghost"); err == nil {
		t.Error("RefreshStats on missing table should fail")
	}
	if _, err := c.TableRows("ghost"); err == nil {
		t.Error("TableRows on missing fragment should fail")
	}
	if err := c.Insert("ghost", []types.Tuple{{}}); err == nil {
		t.Error("insert into missing table should fail")
	}
	if _, err := c.Delete("ghost", expr.True); err == nil {
		t.Error("delete from missing table should fail")
	}
	if _, err := c.Update("ghost", nil, expr.True); err == nil {
		t.Error("update of missing table should fail")
	}
	if err := c.Insert("customer", nil); err != nil {
		t.Error("empty insert should be a no-op")
	}
}

// Randomized end-to-end property: any interleaving of inserts, deletes and
// updates across all three base tables keeps every strategy's view equal to
// the recomputed join.
func TestRandomizedStreamConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	c := newTPCR(t, 4, 6, 2, 2)
	for i, strat := range allStrategies {
		if err := c.CreateView(jv2Def(fmt.Sprintf("v%d", i), strat)); err != nil {
			t.Fatal(err)
		}
	}
	rng := newRand(42)
	nextCK, nextOK, nextLN := int64(1000), int64(2000), int64(3000)
	for step := 0; step < 60; step++ {
		switch rng.Intn(6) {
		case 0:
			nextCK++
			err := c.Insert("customer", []types.Tuple{cust(nextCK%20, 1), cust(nextCK, 2)})
			noErr(t, err)
		case 1:
			nextOK++
			err := c.Insert("orders", []types.Tuple{ord(nextOK, int64(rng.Intn(25)), 1)})
			noErr(t, err)
		case 2:
			nextLN++
			err := c.Insert("lineitem", []types.Tuple{li(int64(rng.Intn(30)), nextLN, 1)})
			noErr(t, err)
		case 3:
			_, err := c.Delete("customer", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(int64(rng.Intn(25)))}})
			noErr(t, err)
		case 4:
			_, err := c.Delete("orders", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(int64(rng.Intn(30)))}})
			noErr(t, err)
		case 5:
			_, err := c.Update("orders", map[string]types.Value{"custkey": types.Int(int64(rng.Intn(20)))},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(int64(rng.Intn(30)))}})
			noErr(t, err)
		}
		if step%10 == 9 {
			for i := range allStrategies {
				if err := c.CheckViewConsistency(fmt.Sprintf("v%d", i)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
	}
	for i := range allStrategies {
		if err := c.CheckViewConsistency(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

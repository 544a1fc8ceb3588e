package cluster

import (
	"sync"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

func TestStorageReport(t *testing.T) {
	c := newTPCR(t, 4, 10, 2, 2)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateGlobalIndex(&catalog.GlobalIndex{Name: "gi_orders_cust", Table: "orders", Col: "custkey"}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.StorageReport()
	if err != nil {
		t.Fatal(err)
	}
	// customer(10), orders(20), lineitem(40), ar_orders_custkey(20),
	// gi_orders_cust(20), jv1(20).
	if got := rep.RowsOf("orders"); got != 20 {
		t.Errorf("orders rows = %d", got)
	}
	if got := rep.RowsOf("ar_orders_custkey"); got != 20 {
		t.Errorf("AR rows = %d", got)
	}
	if got := rep.RowsOf("gi_orders_cust"); got != 20 {
		t.Errorf("GI rows = %d", got)
	}
	if got := rep.RowsOf("jv1"); got != 20 {
		t.Errorf("view rows = %d", got)
	}
	if got := rep.RowsOf("ghost"); got != -1 {
		t.Errorf("missing entry = %d, want -1", got)
	}
	// Overhead = AR + GI rows = 40.
	if got := rep.Overhead(); got != 40 {
		t.Errorf("overhead = %d, want 40", got)
	}
	// Kinds recorded.
	kinds := map[string]string{}
	for _, e := range rep.Entries {
		kinds[e.Name] = e.Kind
	}
	if kinds["orders"] != "table" || kinds["jv1"] != "view" || kinds["ar_orders_custkey"] != "auxrel" || kinds["gi_orders_cust"] != "globalindex" {
		t.Errorf("kinds = %v", kinds)
	}
}

// The paper's §2.1.2 storage-minimization claim: a projected AR stores
// fewer columns (and with a selection, fewer rows) than a full copy, while
// maintenance stays correct.
func TestMinimizedAuxRelStorageAndMaintenance(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 1)
	ar := &catalog.AuxRel{
		Name:         "orders_slim",
		Table:        "orders",
		PartitionCol: "custkey",
		Cols:         []string{"orderkey", "custkey"},
		Where:        expr.Cmp{Op: expr.GE, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(5)}},
	}
	if err := c.CreateAuxRel(ar); err != nil {
		t.Fatal(err)
	}
	rep, err := c.StorageReport()
	if err != nil {
		t.Fatal(err)
	}
	full := rep.RowsOf("orders")
	slim := rep.RowsOf("orders_slim")
	if slim >= full {
		t.Errorf("selective AR should be smaller: %d vs %d", slim, full)
	}
	if err := c.CheckAuxRelConsistency("orders_slim"); err != nil {
		t.Fatal(err)
	}
	// Inserts and deletes flow through the minimized AR.
	if err := c.Insert("orders", []types.Tuple{ord(100, 3, 1), ord(2, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("orders", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAuxRelConsistency("orders_slim"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAllStructuresAfterStream(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)
	// One view per strategy so ARs and GIs both exist.
	if err := c.CreateView(jv1Def("v_ar", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(jv2Def("v_gi", catalog.StrategyGlobalIndex)); err != nil {
		t.Fatal(err)
	}
	rng := newRand(11)
	for i := 0; i < 30; i++ {
		switch rng.Intn(4) {
		case 0:
			noErr(t, c.Insert("orders", []types.Tuple{ord(int64(500+i), int64(rng.Intn(12)), 1)}))
		case 1:
			noErr(t, c.Insert("lineitem", []types.Tuple{li(int64(rng.Intn(20)), int64(700+i), 1)}))
		case 2:
			_, err := c.Delete("orders", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(int64(rng.Intn(20)))}})
			noErr(t, err)
		case 3:
			_, err := c.Update("orders", map[string]types.Value{"custkey": types.Int(int64(rng.Intn(8)))},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(int64(rng.Intn(25)))}})
			noErr(t, err)
		}
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckersCatchCorruption(t *testing.T) {
	c := newTPCR(t, 2, 4, 1, 1)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateGlobalIndex(&catalog.GlobalIndex{Name: "gi_oc", Table: "orders", Col: "custkey"}); err != nil {
		t.Fatal(err)
	}
	// Sanity: everything consistent first.
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the AR behind the cluster's back: insert a phantom tuple
	// directly into one node's fragment.
	ar, _ := c.Catalog().AuxRel("ar_orders_custkey")
	phantom := types.Tuple{types.Int(999), types.Int(999), types.Float(0)}
	home := c.Catalog().Partitioner().NodeFor(types.Int(999))
	if _, err := c.call(home, node.Insert{Frag: ar.Name, Tuples: []types.Tuple{phantom}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAuxRelConsistency("ar_orders_custkey"); err == nil {
		t.Error("checker should catch a phantom AR tuple")
	}
	// Corrupt the GI: dangling entry.
	giHome := c.Catalog().Partitioner().NodeFor(types.Int(555))
	if _, err := c.call(giHome, node.GIInsertBatch{GI: "gi_oc", Vals: []types.Value{types.Int(555)}, Gs: []storage.GlobalRowID{{Node: 63, Row: 1234}}, Metered: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckGlobalIndexConsistency("gi_oc"); err == nil {
		t.Error("checker should catch a dangling GI entry")
	}
	// Checker errors for unknown structures.
	if err := c.CheckAuxRelConsistency("ghost"); err == nil {
		t.Error("missing AR should fail")
	}
	if err := c.CheckGlobalIndexConsistency("ghost"); err == nil {
		t.Error("missing GI should fail")
	}
}

// Two views over the same tables share one covering auxiliary relation
// (§2.1.2's redundancy discussion): EnsureStructures must not duplicate.
func TestViewsShareAuxRels(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 1)
	v1 := jv1Def("v1", catalog.StrategyAuxRel)
	if err := c.CreateView(v1); err != nil {
		t.Fatal(err)
	}
	before := len(c.Catalog().AuxRelsFor("orders"))
	// A second view with the same join needing a subset of v1's columns.
	v2 := jv1Def("v2", catalog.StrategyAuxRel)
	v2.Out = v2.Out[:3] // customer.custkey, customer.acctbal, orders.orderkey
	if err := c.CreateView(v2); err != nil {
		t.Fatal(err)
	}
	after := len(c.Catalog().AuxRelsFor("orders"))
	if after != before {
		t.Errorf("second view created %d extra ARs; should reuse the covering one", after-before)
	}
	// Both views maintain through the shared AR.
	if err := c.Insert("customer", []types.Tuple{cust(3, 0)}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"v1", "v2"} {
		if err := c.CheckViewConsistency(v); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
}

// Two views needing different column coverage on the same (table, join
// attribute) must get separate auxiliary relations under distinct names
// (the §2.1.2 AR_A1/AR_A2 redundancy case).
func TestViewsWithDifferentCoverageGetSeparateARs(t *testing.T) {
	c := newTPCR(t, 4, 6, 2, 1)
	// Narrow first: only custkey flows to the view from orders' side.
	narrow := &catalog.View{
		Name:   "narrow",
		Tables: []string{"customer", "orders"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
		},
		Out:            []catalog.OutCol{{Table: "customer", Col: "custkey"}},
		Aggs:           []catalog.AggSpec{{Func: "count"}},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: catalog.StrategyAuxRel,
	}
	if err := c.CreateView(narrow); err != nil {
		t.Fatal(err)
	}
	// Wide second: needs orderkey and totalprice too.
	if err := c.CreateView(jv1Def("wide", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	ars := c.Catalog().AuxRelsFor("orders")
	if len(ars) != 2 {
		t.Fatalf("expected 2 ARs, got %v", ars)
	}
	// Both views stay maintainable and consistent.
	noErr(t, c.Insert("customer", []types.Tuple{cust(3, 0)}))
	noErr(t, c.Insert("orders", []types.Tuple{ord(700, 3, 9)}))
	for _, vn := range []string{"narrow", "wide"} {
		if err := c.CheckViewConsistency(vn); err != nil {
			t.Errorf("%s: %v", vn, err)
		}
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent DML streams under the channel transport: the coordinator
// serializes statements, nodes run in parallel, and every structure stays
// consistent.
func TestConcurrentStreamsChannelTransport(t *testing.T) {
	c, err := New(Config{Nodes: 4, UseChannels: true})
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
	for i := int64(0); i < 30; i++ {
		orders = append(orders, ord(i, i%10, 1))
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ck := int64(g*100 + i)
				if err := c.Insert("customer", []types.Tuple{cust(ck%12, 1)}); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, err := c.Delete("customer", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(ck % 12)}}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	c := newTPCR(t, 2, 4, 1, 1)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	n, err := c.DeleteAll("customer")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("DeleteAll removed %d, want 4", n)
	}
	rows, _ := c.ViewRows("jv1")
	if len(rows) != 0 {
		t.Errorf("view should be empty, has %d rows", len(rows))
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

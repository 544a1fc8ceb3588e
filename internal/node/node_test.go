package node

import (
	"reflect"
	"testing"

	"joinview/internal/expr"
	"joinview/internal/storage"
	"joinview/internal/types"
)

var ordersSchema = types.NewSchema(
	types.Column{Name: "orderkey", Kind: types.KindInt},
	types.Column{Name: "custkey", Kind: types.KindInt},
)

func newNodeWithOrders(t *testing.T, clusterCol string) *DataNode {
	t.Helper()
	n := New(0, 10)
	if _, err := n.Handle(CreateFragment{Name: "orders", Schema: ordersSchema, ClusterCol: clusterCol, PageRows: 10}); err != nil {
		t.Fatal(err)
	}
	return n
}

// resetMeter zeroes the node's I/O counters and buffer-pool statistics.
func resetMeter(n *DataNode) {
	n.Meter().Reset()
	n.ResetPoolStats()
}

func mustHandle(t *testing.T, n *DataNode, req any) any {
	t.Helper()
	resp, err := n.Handle(req)
	if err != nil {
		t.Fatalf("Handle(%T): %v", req, err)
	}
	return resp
}

func order(ok, ck int64) types.Tuple {
	return types.Tuple{types.Int(ok), types.Int(ck)}
}

func TestCreateFragmentAndInsert(t *testing.T) {
	n := newNodeWithOrders(t, "")
	if _, err := n.Handle(CreateFragment{Name: "orders", Schema: ordersSchema}); err == nil {
		t.Error("duplicate fragment should fail")
	}
	res := mustHandle(t, n, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 6)}}).(InsertResult)
	if len(res.Rows) != 2 {
		t.Fatalf("InsertResult = %v", res)
	}
	info := mustHandle(t, n, FragInfo{Frag: "orders"}).(FragInfoResult)
	if info.Len != 2 || info.Pages != 1 {
		t.Errorf("FragInfo = %+v", info)
	}
	if _, err := n.Handle(Insert{Frag: "ghost", Tuples: nil}); err == nil {
		t.Error("insert into missing fragment should fail")
	}
	if _, err := n.Handle(Insert{Frag: "orders", Tuples: []types.Tuple{{types.Int(1)}}}); err == nil {
		t.Error("arity-violating insert should fail")
	}
	if _, err := n.Handle(FragInfo{Frag: "ghost"}); err == nil {
		t.Error("FragInfo on missing fragment should fail")
	}
}

func TestDeleteRowsAndMatch(t *testing.T) {
	n := newNodeWithOrders(t, "custkey")
	ins := mustHandle(t, n, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 5), order(2, 5)}}).(InsertResult)
	del := mustHandle(t, n, DeleteRows{Frag: "orders", Rows: []storage.RowID{ins.Rows[0], 999}}).(DeleteResult)
	if len(del.Tuples) != 1 || !del.Tuples[0].Equal(order(1, 5)) {
		t.Fatalf("DeleteRows = %v", del)
	}
	// Bag semantics: one instance removed per requested tuple.
	del = mustHandle(t, n, DeleteMatch{Frag: "orders", HintCol: "custkey", Tuples: []types.Tuple{order(2, 5), order(9, 9)}}).(DeleteResult)
	if len(del.Tuples) != 1 {
		t.Fatalf("DeleteMatch = %v", del)
	}
	info := mustHandle(t, n, FragInfo{Frag: "orders"}).(FragInfoResult)
	if info.Len != 1 {
		t.Errorf("fragment should have 1 row left, has %d", info.Len)
	}
	if _, err := n.Handle(DeleteMatch{Frag: "orders", HintCol: "nope", Tuples: []types.Tuple{order(1, 1)}}); err == nil {
		t.Error("bad hint column should fail")
	}
	if _, err := n.Handle(DeleteRows{Frag: "ghost"}); err == nil {
		t.Error("DeleteRows on missing fragment should fail")
	}
	if _, err := n.Handle(DeleteMatch{Frag: "ghost"}); err == nil {
		t.Error("DeleteMatch on missing fragment should fail")
	}
}

func TestProbeIndex(t *testing.T) {
	n := newNodeWithOrders(t, "custkey")
	mustHandle(t, n, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 5), order(3, 6)}})
	resetMeter(n)
	delta := []types.Tuple{{types.Int(5), types.Int(100)}}
	res := mustHandle(t, n, Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 0, Algo: AlgoIndex}).(Probed)
	if len(res.Tuples) != 2 {
		t.Fatalf("Probe = %v", res.Tuples)
	}
	// delta ++ row: arity 2 + 2.
	if len(res.Tuples[0]) != 4 || res.Tuples[0][3].I != 5 {
		t.Errorf("probe output shape wrong: %v", res.Tuples[0])
	}
	c := n.Meter().Snapshot()
	if c.Searches != 1 {
		t.Errorf("index probe charged %+v, want 1 search", c)
	}
	if _, err := n.Handle(Probe{Frag: "ghost"}); err == nil {
		t.Error("probe on missing fragment should fail")
	}
	if _, err := n.Handle(Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 0, Algo: Algo(99)}); err == nil {
		t.Error("bad algo should fail")
	}
	if _, err := n.Handle(Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 7, Algo: AlgoIndex}); err == nil {
		t.Error("bad delta key should fail")
	}
}

func TestProbeSortMergeAndAuto(t *testing.T) {
	n := newNodeWithOrders(t, "custkey")
	tuples := make([]types.Tuple, 200)
	for i := range tuples {
		tuples[i] = order(int64(i), int64(i%10))
	}
	mustHandle(t, n, Insert{Frag: "orders", Tuples: tuples})
	resetMeter(n)

	delta := []types.Tuple{{types.Int(3), types.Int(0)}}
	res := mustHandle(t, n, Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 0, Algo: AlgoSortMerge}).(Probed)
	if len(res.Tuples) != 20 {
		t.Fatalf("sort-merge probe = %d tuples", len(res.Tuples))
	}
	c := n.Meter().Snapshot()
	// 200 rows / 10 per page = 20 pages, clustered on join col -> scan.
	if c.ScanPages != 20 || c.SortPages != 0 {
		t.Errorf("sort-merge on clustered charged %+v", c)
	}

	// Auto with one delta tuple picks index (1 search < 20-page scan).
	resetMeter(n)
	mustHandle(t, n, Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 0, Algo: AlgoAuto})
	c = n.Meter().Snapshot()
	if c.Searches != 1 || c.ScanPages != 0 {
		t.Errorf("auto should pick index for 1 delta tuple: %+v", c)
	}

	// Auto with a huge delta picks sort-merge (delta > pages).
	bigDelta := make([]types.Tuple, 100)
	for i := range bigDelta {
		bigDelta[i] = types.Tuple{types.Int(int64(i % 10)), types.Int(0)}
	}
	resetMeter(n)
	mustHandle(t, n, Probe{Frag: "orders", FragCol: "custkey", Delta: bigDelta, DeltaKey: 0, Algo: AlgoAuto})
	c = n.Meter().Snapshot()
	if c.ScanPages != 20 || c.Searches != 0 {
		t.Errorf("auto should pick sort-merge for 100 delta tuples: %+v", c)
	}
}

func TestGlobalIndexOps(t *testing.T) {
	n := New(3, 0)
	mustHandle(t, n, CreateGlobalIndex{Name: "gi", DistClustered: false})
	if _, err := n.Handle(CreateGlobalIndex{Name: "gi"}); err == nil {
		t.Error("duplicate GI should fail")
	}
	g1 := storage.GlobalRowID{Node: 1, Row: 10}
	g2 := storage.GlobalRowID{Node: 2, Row: 20}
	seven := []types.Value{types.Int(7)}
	mustHandle(t, n, GIInsertBatch{GI: "gi", Vals: seven, Gs: []storage.GlobalRowID{g1}, Metered: true})
	mustHandle(t, n, GIInsertBatch{GI: "gi", Vals: seven, Gs: []storage.GlobalRowID{g2}, Metered: true})
	if c := n.Meter().Snapshot(); c.Inserts != 2 {
		t.Errorf("two metered single-entry batches charged %+v, want 2 inserts", c)
	}
	rows := mustHandle(t, n, GILookup{GI: "gi", Val: types.Int(7)}).(GIRows)
	if len(rows.IDs) != 2 {
		t.Fatalf("GILookup = %v", rows)
	}
	if info := mustHandle(t, n, FragInfo{Frag: "gi", GI: true}).(FragInfoResult); info != (FragInfoResult{Len: 2}) {
		t.Errorf("FragInfo of a global index = %+v, want 2 entries and no pages", info)
	}
	del := mustHandle(t, n, GIDeleteBatch{GI: "gi", Vals: seven, Gs: []storage.GlobalRowID{g1}}).(GIDeletedBatch)
	if len(del.OK) != 1 || !del.OK[0] {
		t.Errorf("GIDeleteBatch = %v, want the entry removed", del.OK)
	}
	del = mustHandle(t, n, GIDeleteBatch{GI: "gi", Vals: seven, Gs: []storage.GlobalRowID{g1}}).(GIDeletedBatch)
	if len(del.OK) != 1 || del.OK[0] {
		t.Errorf("double GIDeleteBatch = %v, want the entry reported absent", del.OK)
	}
	for _, req := range []any{GIInsertBatch{GI: "x"}, GIDeleteBatch{GI: "x"}, GILookup{GI: "x"},
		FragInfo{Frag: "x", GI: true}, FragInfo{Frag: "gi"}} {
		if _, err := n.Handle(req); err == nil {
			t.Errorf("%+v on a missing structure should fail", req)
		}
	}
}

func TestFetchJoinCosts(t *testing.T) {
	// Non-clustered: one FETCH per row.
	n := newNodeWithOrders(t, "")
	ins := mustHandle(t, n, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 5), order(3, 5)}}).(InsertResult)
	resetMeter(n)
	delta := types.Tuple{types.Int(5), types.Int(0)}
	res := mustHandle(t, n, FetchJoin{Frag: "orders", FragCol: "custkey", Rows: ins.Rows, Delta: delta}).(Probed)
	if len(res.Tuples) != 3 || len(res.Tuples[0]) != 4 {
		t.Fatalf("FetchJoin = %v", res.Tuples)
	}
	c := n.Meter().Snapshot()
	if c.Fetches != 3 {
		t.Errorf("non-clustered fetch-join charged %+v, want 3 fetches", c)
	}

	// Distributed clustered: matching rows share a page.
	nc := newNodeWithOrders(t, "custkey")
	ins = mustHandle(t, nc, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 5), order(3, 5)}}).(InsertResult)
	resetMeter(nc)
	mustHandle(t, nc, FetchJoin{Frag: "orders", FragCol: "custkey", Rows: ins.Rows, Delta: delta})
	c = nc.Meter().Snapshot()
	if c.Fetches != 1 {
		t.Errorf("clustered fetch-join charged %+v, want 1 fetch", c)
	}

	// Stale row id: global index out of sync is an error.
	if _, err := nc.Handle(FetchJoin{Frag: "orders", FragCol: "custkey", Rows: []storage.RowID{999}, Delta: delta}); err == nil {
		t.Error("fetch-join with missing row should fail")
	}
	if _, err := nc.Handle(FetchJoin{Frag: "ghost"}); err == nil {
		t.Error("fetch-join on missing fragment should fail")
	}
}

// TestScansAndMeterRequests covers every mode of the one read request.
// Metered reads charge exactly the fragment's pages as scan I/O and touch
// each page once; unmetered reads charge nothing and touch no buffer page.
// Every mode at one epoch returns the same tuples under the same row ids,
// a match-all predicate returns the live state, a predicate with an epoch
// or without metering is refused, and a missing fragment fails.
func TestScansAndMeterRequests(t *testing.T) {
	n := New(0, 10)
	n.SetBufferPages(64)
	mustHandle(t, n, CreateFragment{Name: "orders", Schema: ordersSchema, PageRows: 10})
	tuples := make([]types.Tuple, 25)
	for i := range tuples {
		tuples[i] = order(int64(i), int64(i%3))
	}
	ins := mustHandle(t, n, Insert{Frag: "orders", Tuples: tuples, Epoch: 1}).(InsertResult)
	// A delete after epoch 1 makes that snapshot differ from the live state.
	mustHandle(t, n, DeleteRows{Frag: "orders", Rows: ins.Rows[:1], Epoch: 2})
	pages := int64(mustHandle(t, n, FragInfo{Frag: "orders"}).(FragInfoResult).Pages)
	if pages < 2 {
		t.Fatalf("fragment spans %d pages; the test needs several", pages)
	}

	all := expr.Cmp{Op: expr.GE, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(0)}}
	want := map[uint64]int{0: len(tuples) - 1, 1: len(tuples)}
	var first map[uint64]RowsResult
	for _, unmetered := range []bool{false, true} {
		got := map[uint64]RowsResult{}
		for _, epoch := range []uint64{0, 1} {
			resetMeter(n)
			rr := mustHandle(t, n, Scan{Frag: "orders", Epoch: epoch, Unmetered: unmetered}).(RowsResult)
			c, ps := n.Meter().Snapshot(), n.PoolStatsSnapshot()
			switch {
			case unmetered && (c.IOs() != 0 || ps.Hits+ps.Misses != 0):
				t.Errorf("unmetered scan at epoch %d charged %+v and touched %+v", epoch, c, ps)
			case !unmetered && (c.ScanPages != pages || c.IOs() != pages || ps.Hits+ps.Misses != pages):
				t.Errorf("metered scan at epoch %d charged %+v and touched %+v, want %d pages", epoch, c, ps, pages)
			}
			if len(rr.Tuples) != want[epoch] || len(rr.Rows) != len(rr.Tuples) {
				t.Fatalf("scan at epoch %d (unmetered %v): %d tuples, %d rows, want %d", epoch, unmetered, len(rr.Tuples), len(rr.Rows), want[epoch])
			}
			got[epoch] = rr
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("unmetered scans %+v differ from metered %+v", got, first)
		}
	}

	resetMeter(n)
	matched := mustHandle(t, n, Scan{Frag: "orders", Pred: all}).(RowsResult)
	if c := n.Meter().Snapshot(); c.ScanPages != pages || c.IOs() != pages {
		t.Errorf("predicate scan charged %+v, want %d scan pages", c, pages)
	}
	if !reflect.DeepEqual(matched, first[0]) {
		t.Errorf("match-all predicate scan %+v differs from the live scan %+v", matched, first[0])
	}

	for _, req := range []Scan{
		{Frag: "orders", Pred: all, Epoch: 1},
		{Frag: "orders", Pred: all, Unmetered: true},
		{Frag: "ghost"}, {Frag: "ghost", Unmetered: true}, {Frag: "ghost", Pred: all},
	} {
		if _, err := n.Handle(req); err == nil {
			t.Errorf("%+v should fail", req)
		}
	}
}

func TestCreateIndexRequest(t *testing.T) {
	n := newNodeWithOrders(t, "")
	mustHandle(t, n, Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}})
	mustHandle(t, n, CreateIndex{Frag: "orders", Name: "ix", Col: "custkey"})
	if _, err := n.Handle(CreateIndex{Frag: "orders", Name: "ix", Col: "custkey"}); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := n.Handle(CreateIndex{Frag: "ghost", Name: "ix", Col: "c"}); err == nil {
		t.Error("index on missing fragment should fail")
	}
	resetMeter(n)
	res := mustHandle(t, n, Probe{Frag: "orders", FragCol: "custkey", Delta: []types.Tuple{{types.Int(5)}}, DeltaKey: 0, Algo: AlgoIndex}).(Probed)
	if len(res.Tuples) != 1 {
		t.Fatal("probe via secondary index failed")
	}
	c := n.Meter().Snapshot()
	if c.Searches != 1 || c.Fetches != 1 {
		t.Errorf("secondary probe charged %+v", c)
	}
}

func TestAggApply(t *testing.T) {
	n := New(0, 10)
	schema := types.NewSchema(
		types.Column{Name: "v.g", Kind: types.KindInt},
		types.Column{Name: "count", Kind: types.KindInt},
		types.Column{Name: "sum", Kind: types.KindFloat},
	)
	mustHandle(t, n, CreateFragment{Name: "av", Schema: schema, ClusterCol: "v.g", PageRows: 10})
	apply := func(g int64, cnt int64, sum float64) (any, error) {
		return n.Handle(AggApply{
			Frag: "av", HintCol: "v.g", GroupLen: 1, CountPos: 0,
			Keys:   []types.Tuple{{types.Int(g)}},
			Deltas: []types.Tuple{{types.Int(cnt), types.Float(sum)}},
		})
	}
	// New group.
	if _, err := apply(1, 2, 5.5); err != nil {
		t.Fatal(err)
	}
	rows := mustHandle(t, n, Scan{Frag: "av", Unmetered: true}).(RowsResult).Tuples
	if len(rows) != 1 || rows[0][1].I != 2 || rows[0][2].F != 5.5 {
		t.Fatalf("group = %v", rows)
	}
	// Fold into existing group.
	if _, err := apply(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	rows = mustHandle(t, n, Scan{Frag: "av", Unmetered: true}).(RowsResult).Tuples
	if rows[0][1].I != 3 || rows[0][2].F != 6 {
		t.Fatalf("folded group = %v", rows)
	}
	// Drain to zero: group removed.
	if _, err := apply(1, -3, -6); err != nil {
		t.Fatal(err)
	}
	rows = mustHandle(t, n, Scan{Frag: "av", Unmetered: true}).(RowsResult).Tuples
	if len(rows) != 0 {
		t.Fatalf("group should be gone: %v", rows)
	}
	// Errors.
	if _, err := apply(9, -1, 0); err == nil {
		t.Error("delta for an absent group should fail")
	}
	if _, err := apply(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := apply(1, -2, 0); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := n.Handle(AggApply{Frag: "ghost"}); err == nil {
		t.Error("missing fragment should fail")
	}
	if _, err := n.Handle(AggApply{Frag: "av", HintCol: "count", GroupLen: 1, Keys: nil, Deltas: nil}); err == nil {
		t.Error("non-group hint column should fail")
	}
	if _, err := n.Handle(AggApply{Frag: "av", HintCol: "v.g", GroupLen: 1,
		Keys: []types.Tuple{{types.Int(1)}}, Deltas: nil}); err == nil {
		t.Error("key/delta length mismatch should fail")
	}
}

func TestAddValues(t *testing.T) {
	cases := []struct {
		a, b, want types.Value
	}{
		{types.Int(1), types.Int(2), types.Int(3)},
		{types.Float(1.5), types.Float(2), types.Float(3.5)},
		{types.Int(1), types.Float(0.5), types.Float(1.5)},
		{types.Float(1.5), types.Int(2), types.Float(3.5)},
		{types.Null(), types.Int(2), types.Int(2)},
		{types.Int(2), types.Null(), types.Int(2)},
	}
	for _, c := range cases {
		got, err := addValues(c.a, c.b)
		if err != nil || !types.Equal(got, c.want) {
			t.Errorf("addValues(%v, %v) = %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := addValues(types.String("x"), types.Int(1)); err == nil {
		t.Error("adding strings should fail")
	}
}

func TestUnknownRequest(t *testing.T) {
	n := New(0, 0)
	if _, err := n.Handle(struct{ X int }{}); err == nil {
		t.Error("unknown request type should fail")
	}
	if n.ID() != 0 {
		t.Error("ID wrong")
	}
	if n.Meter() == nil {
		t.Error("Meter nil")
	}
	h := n.Handler()
	if _, err := h(Ping{}); err != nil {
		t.Error("Handler adapter failed")
	}
	if (AlgoIndex).String() != "index" || (AlgoSortMerge).String() != "sort-merge" || (AlgoAuto).String() != "auto" || Algo(9).String() != "unknown" {
		t.Error("Algo strings wrong")
	}
}

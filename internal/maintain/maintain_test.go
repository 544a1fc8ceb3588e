package maintain

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/hashpart"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/stats"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// testEnv wires a small two-table world by hand: relation a(k, x) and
// b(k, y) joined on k, with a view partitioned on a.k. b is partitioned on
// y (not the join attribute), so the AR/GI strategies need structures.
type testEnv struct {
	env   Env
	view  *catalog.View
	nodes []*node.DataNode
}

func newTestEnv(t *testing.T, l int, strategy catalog.Strategy) *testEnv {
	t.Helper()
	cat := catalog.New()
	aSchema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindInt},
	)
	bSchema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "y", Kind: types.KindInt},
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.AddTable(&catalog.Table{Name: "a", Schema: aSchema, PartitionCol: "k", ClusterCol: "k"}))
	must(cat.AddTable(&catalog.Table{
		Name: "b", Schema: bSchema, PartitionCol: "y", ClusterCol: "y",
		Indexes: []catalog.Index{{Name: "ix_b_k", Col: "k"}},
	}))
	view := &catalog.View{
		Name:   "v",
		Tables: []string{"a", "b"},
		Joins:  []catalog.JoinPred{{Left: "a", LeftCol: "k", Right: "b", RightCol: "k"}},
		Out: []catalog.OutCol{
			{Table: "a", Col: "k"}, {Table: "a", Col: "x"}, {Table: "b", Col: "y"},
		},
		PartitionTable: "a", PartitionCol: "k",
		Strategy: strategy,
	}
	must(cat.AddView(view))
	must(cat.AddAuxRel(&catalog.AuxRel{Name: "ar_b_k", Table: "b", PartitionCol: "k"}))
	must(cat.AddGlobalIndex(&catalog.GlobalIndex{Name: "gi_b_k", Table: "b", Col: "k"}))
	must(cat.UsePartitionMap(hashpart.Identity(l)))

	nodes := make([]*node.DataNode, l)
	handlers := make([]netsim.Handler, l)
	for i := range nodes {
		nodes[i] = node.New(i, 10)
		handlers[i] = nodes[i].Handler()
	}
	tr := netsim.NewDirect(handlers)
	t.Cleanup(tr.Close)
	env := Env{T: tr, Cat: cat.Build()}

	// Allocate fragments everywhere.
	mustB := func(req any) {
		t.Helper()
		if _, err := tr.Broadcast(netsim.Coordinator, req); err != nil {
			t.Fatal(err)
		}
	}
	mustB(node.CreateFragment{Name: "a", Schema: aSchema, ClusterCol: "k"})
	mustB(node.CreateFragment{Name: "b", Schema: bSchema, ClusterCol: "y"})
	mustB(node.CreateIndex{Frag: "b", Name: "ix_b_k", Col: "k"})
	ar, _ := env.Cat.AuxRel("ar_b_k")
	mustB(node.CreateFragment{Name: "ar_b_k", Schema: ar.Schema, ClusterCol: "k"})
	mustB(node.CreateGlobalIndex{Name: "gi_b_k"})
	mustB(node.CreateFragment{Name: "v", Schema: view.Schema, ClusterCol: "a.k"})

	return &testEnv{env: env, view: view, nodes: nodes}
}

// loadB inserts b tuples through all the structures (base by y, AR by k,
// GI entry at k's home node).
func (te *testEnv) loadB(t *testing.T, rows [][2]int64) {
	t.Helper()
	for _, r := range rows {
		tup := types.Tuple{types.Int(r[0]), types.Int(r[1])}
		home := te.env.Cat.Partitioner().NodeFor(types.Int(r[1]))
		resp, err := te.env.T.Call(netsim.Coordinator, home, node.Insert{Frag: "b", Tuples: []types.Tuple{tup}})
		if err != nil {
			t.Fatal(err)
		}
		row := resp.(node.InsertResult).Rows[0]
		arHome := te.env.Cat.Partitioner().NodeFor(types.Int(r[0]))
		if _, err := te.env.T.Call(netsim.Coordinator, arHome, node.Insert{Frag: "ar_b_k", Tuples: []types.Tuple{tup}}); err != nil {
			t.Fatal(err)
		}
		if _, err := te.env.T.Call(netsim.Coordinator, arHome, node.GIInsertBatch{GI: "gi_b_k", Vals: []types.Value{types.Int(r[0])}, Gs: []storage.GlobalRowID{mkGRID(home, row)}, Metered: true}); err != nil {
			t.Fatal(err)
		}
	}
}

func (te *testEnv) plan(t *testing.T, strategy catalog.Strategy) *plan.Plan {
	t.Helper()
	p, err := plan.Build(te.env.Cat, stats.New(), te.view, "a", strategy)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComputeViewDeltaAllStrategies(t *testing.T) {
	for _, strat := range []catalog.Strategy{catalog.StrategyNaive, catalog.StrategyAuxRel, catalog.StrategyGlobalIndex} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			te := newTestEnv(t, 4, strat)
			te.loadB(t, [][2]int64{{1, 10}, {1, 11}, {2, 20}, {3, 30}})
			delta := []types.Tuple{
				{types.Int(1), types.Int(100)}, // matches two b rows
				{types.Int(9), types.Int(900)}, // matches none
			}
			out, res, err := ComputeViewDelta(te.env, te.plan(t, strat), delta, node.AlgoIndex)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 2 || res.ViewTuples != 2 {
				t.Fatalf("delta = %v", out)
			}
			// Output schema: a.k, a.x, b.y.
			for _, tup := range out {
				if len(tup) != 3 || tup[0].I != 1 || tup[1].I != 100 {
					t.Errorf("bad view tuple %v", tup)
				}
			}
			if out[0][2].I+out[1][2].I != 21 {
				t.Errorf("expected y values 10 and 11, got %v", out)
			}
			if len(res.Steps) != 1 || res.Steps[0].Table != "b" {
				t.Errorf("trace = %+v", res.Steps)
			}
		})
	}
}

func TestStepTraceNodesProbed(t *testing.T) {
	const l = 4
	delta := []types.Tuple{{types.Int(1), types.Int(0)}}

	teNaive := newTestEnv(t, l, catalog.StrategyNaive)
	teNaive.loadB(t, [][2]int64{{1, 10}})
	_, res, err := ComputeViewDelta(teNaive.env, teNaive.plan(t, catalog.StrategyNaive), delta, node.AlgoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].NodesProbed != l {
		t.Errorf("naive probed %d nodes, want %d", res.Steps[0].NodesProbed, l)
	}

	teAux := newTestEnv(t, l, catalog.StrategyAuxRel)
	teAux.loadB(t, [][2]int64{{1, 10}})
	_, res, err = ComputeViewDelta(teAux.env, teAux.plan(t, catalog.StrategyAuxRel), delta, node.AlgoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].NodesProbed != 1 {
		t.Errorf("AR probed %d nodes, want 1", res.Steps[0].NodesProbed)
	}

	teGI := newTestEnv(t, l, catalog.StrategyGlobalIndex)
	teGI.loadB(t, [][2]int64{{1, 10}, {1, 11}})
	_, res, err = ComputeViewDelta(teGI.env, teGI.plan(t, catalog.StrategyGlobalIndex), delta, node.AlgoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].NodesProbed < 1 || res.Steps[0].NodesProbed > 2 {
		t.Errorf("GI probed %d nodes, want K in [1,2]", res.Steps[0].NodesProbed)
	}
}

// inFlight wraps a transport and records the most calls it ever had in
// flight at once. Each call holds its slot a little while, so calls that
// can overlap do.
type inFlight struct {
	netsim.Transport
	cur, max atomic.Int64
}

func (f *inFlight) Call(from, to int, req any) (any, error) {
	n := f.cur.Add(1)
	defer f.cur.Add(-1)
	for m := f.max.Load(); n > m && !f.max.CompareAndSwap(m, n); m = f.max.Load() {
	}
	time.Sleep(50 * time.Microsecond)
	return f.Transport.Call(from, to, req)
}

// TestGlobalIndexStepBoundsCallsInFlight: a 1,000-row global-index step
// dispatched in parallel keeps at most giStepWorkers calls in flight, and
// gathers exactly the serial step's output, in the same order.
func TestGlobalIndexStepBoundsCallsInFlight(t *testing.T) {
	te := newTestEnv(t, 4, catalog.StrategyGlobalIndex)
	var bRows [][2]int64
	for k := int64(0); k < 50; k++ {
		bRows = append(bRows, [2]int64{k, 10 * k}, [2]int64{k, 10*k + 1})
	}
	te.loadB(t, bRows)
	delta := make([]types.Tuple, 1000)
	for i := range delta {
		delta[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
	}
	p := te.plan(t, catalog.StrategyGlobalIndex)
	want, _, err := ComputeViewDelta(te.env, p, delta, node.AlgoIndex)
	if err != nil {
		t.Fatal(err)
	}

	handlers := make([]netsim.Handler, len(te.nodes))
	for i, n := range te.nodes {
		handlers[i] = n.Handler()
	}
	ch := netsim.NewChan(handlers)
	t.Cleanup(ch.Close)
	rec := &inFlight{Transport: ch}
	env := te.env
	env.T, env.Parallel = rec, true
	got, _, err := ComputeViewDelta(env, p, delta, node.AlgoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1000 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel step gathered %d rows, serial %d (want 1000, equal in order)", len(got), len(want))
	}
	if m := rec.max.Load(); m < 2 || m > giStepWorkers {
		t.Errorf("%d calls in flight at most, want 2..%d", m, giStepWorkers)
	}
}

func TestEmptyDelta(t *testing.T) {
	te := newTestEnv(t, 2, catalog.StrategyNaive)
	out, res, err := ComputeViewDelta(te.env, te.plan(t, catalog.StrategyNaive), nil, node.AlgoIndex)
	if err != nil || out != nil || res.ViewTuples != 0 {
		t.Errorf("empty delta = %v, %+v, %v", out, res, err)
	}
	if err := ApplyToView(te.env, te.view, nil, OpInsert); err != nil {
		t.Errorf("applying empty delta: %v", err)
	}
}

func TestApplyToViewInsertDelete(t *testing.T) {
	te := newTestEnv(t, 4, catalog.StrategyNaive)
	tuples := []types.Tuple{
		{types.Int(1), types.Int(100), types.Int(10)},
		{types.Int(2), types.Int(200), types.Int(20)},
		{types.Int(2), types.Int(200), types.Int(20)}, // duplicate
	}
	if err := ApplyToView(te.env, te.view, tuples, OpInsert); err != nil {
		t.Fatal(err)
	}
	count := te.countView(t)
	if count != 3 {
		t.Fatalf("view has %d rows after insert, want 3", count)
	}
	// Delete one instance of the duplicate.
	if err := ApplyToView(te.env, te.view, tuples[1:2], OpDelete); err != nil {
		t.Fatal(err)
	}
	if got := te.countView(t); got != 2 {
		t.Fatalf("view has %d rows after delete, want 2", got)
	}
}

func (te *testEnv) countView(t *testing.T) int {
	t.Helper()
	resps, err := te.env.T.Broadcast(netsim.Coordinator, node.Scan{Frag: "v", Unmetered: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range resps {
		n += len(r.(node.RowsResult).Tuples)
	}
	return n
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Error("Op strings wrong")
	}
}

func mkGRID(node int, row storage.RowID) storage.GlobalRowID {
	return storage.GlobalRowID{Node: int32(node), Row: row}
}

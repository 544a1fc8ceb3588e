package mplan

import (
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/hashpart"
	"joinview/internal/maintain"
	"joinview/internal/stats"
)

// TestSharedPotentialDetection pins the gate the executor uses to pick the
// shared-DAG path: a plan has shared potential exactly when at least two
// view stages can resolve to delta-join chains with a common prefix. One
// view — or views with disjoint chains — must take the classic per-view
// path, byte-for-byte.
func TestSharedPotentialDetection(t *testing.T) {
	// A single view never has shared potential.
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if p.SharedPotential {
		t.Error("single-view plan claims shared potential")
	}

	// Two structurally identical views share their whole chain.
	cat, st = testCatalog(t, rsView("jvA", catalog.StrategyAuto), rsView("jvB", catalog.StrategyAuto))
	p, err = Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SharedPotential {
		t.Error("two identical views compiled without shared potential")
	}
	if len(p.Views) != 2 {
		t.Errorf("plan views = %v, want 2 entries", p.Views)
	}
}

// TestDAGDeduplicatesCommonPrefixes checks the DAG construction itself:
// three views with identical delta-join chains collapse to one node per
// chain step, each node fanned out to all three.
func TestDAGDeduplicatesCommonPrefixes(t *testing.T) {
	cat, st := testCatalog(t,
		rsView("jvA", catalog.StrategyAuto),
		rsView("jvB", catalog.StrategyAuto),
		rsView("jvC", catalog.StrategyAuto))
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.DAG()
	// r ⋈ s is a single delta-join step; identical across the views, so the
	// DAG is a single shared node.
	if len(nodes) != 1 {
		t.Fatalf("DAG has %d nodes, want 1 shared node:\n%+v", len(nodes), nodes)
	}
	n := &nodes[0]
	if !n.Shared() || len(n.Views) != 3 {
		t.Errorf("node feeds %v, want all three views", n.Views)
	}
	if n.Depth != 0 {
		t.Errorf("single-step chain at depth %d", n.Depth)
	}
	if n.Key == "" || n.Key != n.Step.ChainKey {
		t.Errorf("node key %q does not match its step's chain key %q", n.Key, n.Step.ChainKey)
	}

	// A pinned view forced onto a different structure keeps its own node.
	cat, st = testCatalog(t,
		rsView("jvA", catalog.StrategyAuxRel),
		rsView("jvB", catalog.StrategyGlobalIndex))
	p, err = Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	nodes = p.DAG()
	if len(nodes) != 2 {
		t.Fatalf("distinct pinned strategies share a node: %+v", nodes)
	}
	for i := range nodes {
		if nodes[i].Shared() {
			t.Errorf("node %d wrongly shared: %+v", i, nodes[i])
		}
	}
}

// TestSharedTWModel checks the cost model the advisor and EXPLAIN rely on:
// shared pricing charges each distinct DAG node once, so it undercuts
// independent per-view pricing as soon as two views overlap, and the gap
// widens with the view population.
func TestSharedTWModel(t *testing.T) {
	mk := func(n int) (*Plan, error) {
		views := make([]*catalog.View, n)
		for i := range views {
			views[i] = rsView("jv"+string(rune('A'+i)), catalog.StrategyAuto)
		}
		cat, st := testCatalog(t, views...)
		return Compile(cat, st, "r", maintain.OpInsert)
	}
	p1, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	s1, i1 := p1.SharedTW(16)
	if s1 != i1 {
		t.Errorf("one view: shared %.1f != independent %.1f", s1, i1)
	}
	p4, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	s4, i4 := p4.SharedTW(16)
	if s4 >= i4 {
		t.Errorf("four views: shared %.1f not below independent %.1f", s4, i4)
	}
	// The shared price is population-insensitive up to the per-view apply
	// tail: 4 views share exactly the single chain 1 view runs.
	if s4 != s1 {
		t.Errorf("shared TW moved with the view population: %.1f vs %.1f", s4, s1)
	}
	if i4 <= i1 {
		t.Errorf("independent TW did not grow with the population: %.1f vs %.1f", i4, i1)
	}
}

// TestDescribeDAG smoke-tests the EXPLAIN rendering of the shared DAG.
func TestDescribeDAG(t *testing.T) {
	cat, st := testCatalog(t,
		rsView("jvA", catalog.StrategyAuto),
		rsView("jvB", catalog.StrategyAuto),
		rsView("jvC", catalog.StrategyAuto))
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	out := p.DescribeDAG(16)
	for _, want := range []string{
		"shared maintenance DAG for insert into r",
		"executed once, feeds 3 views",
		"jvA, jvB, jvC",
		"% saved",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribeDAG missing %q:\n%s", want, out)
		}
	}
	// Deterministic: rendering twice (fresh compile) is byte-identical.
	p2, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if out != p2.DescribeDAG(16) {
		t.Error("DescribeDAG not deterministic across recompiles")
	}
}

// advisorCatalog builds r ⋈ s with NO auxiliary structures and s
// partitioned off the join attribute: every view's only feasible strategy
// is naive broadcast, so the advisor has real savings to find.
func advisorCatalog(t *testing.T, nviews int) (*catalog.Catalog, *stats.Stats) {
	t.Helper()
	cat := catalog.New()
	for _, tb := range []*catalog.Table{intTable("r", "k", "a"), intTable("s", "b", "k")} {
		tb.ClusterCol = tb.PartitionCol
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nviews; i++ {
		if err := cat.AddView(rsView("jv"+string(rune('A'+i)), catalog.StrategyAuto)); err != nil {
			t.Fatal(err)
		}
	}
	cat.SetPartitionMap(hashpart.Identity(8))
	st := stats.New()
	st.Set("r", stats.TableStats{Rows: 1000, Distinct: map[string]int64{"k": 100, "a": 10}})
	st.Set("s", stats.TableStats{Rows: 4000, Distinct: map[string]int64{"k": 100, "b": 20}})
	return cat, st
}

// TestAdviseRecommendsMissingStructures checks the materialization advisor
// end to end: with nothing materialized it recommends structures, prices a
// real saving, attributes each item to the views that use it, and never
// touches the catalog it was shown.
func TestAdviseRecommendsMissingStructures(t *testing.T) {
	cat, st := advisorCatalog(t, 2)
	v0 := cat.Version()
	adv, err := Advise(cat, st)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Version() != v0 {
		t.Fatal("Advise mutated the live catalog")
	}
	if len(cat.AuxRelsFor("s")) != 0 || len(cat.GlobalIndexesFor("s")) != 0 {
		t.Fatal("Advise materialized structures on the live catalog")
	}
	if len(adv.Items) == 0 {
		t.Fatalf("advisor found nothing with zero structures materialized:\n%s", adv.Describe())
	}
	if adv.AdvisedTW >= adv.BaselineTW {
		t.Errorf("advised TW %.1f not below baseline %.1f", adv.AdvisedTW, adv.BaselineTW)
	}
	for i := range adv.Items {
		it := &adv.Items[i]
		if it.SavedTW <= 0 {
			t.Errorf("item %d (%s %s) accepted with saving %.2f", i, it.Kind(), it.Name(), it.SavedTW)
		}
		// Both views have identical shape; any recommended structure serves
		// both of them.
		if len(it.ForViews) != 2 {
			t.Errorf("item %d (%s %s) attributed to %v, want both views", i, it.Kind(), it.Name(), it.ForViews)
		}
	}
	if d := adv.Describe(); !strings.Contains(d, "materialization advisor") {
		t.Errorf("Describe: %s", d)
	}

	// Apply every recommendation; a second run must find nothing further
	// (greedy already stopped when no candidate helped).
	for i := range adv.Items {
		it := &adv.Items[i]
		var err error
		if it.AuxRel != nil {
			err = cat.AddAuxRel(it.AuxRel)
		} else {
			err = cat.AddGlobalIndex(it.GlobalIndex)
		}
		if err != nil {
			t.Fatalf("applying %s %s: %v", it.Kind(), it.Name(), err)
		}
	}
	again, err := Advise(cat, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Items) != 0 {
		t.Errorf("advisor not converged after applying its own advice:\n%s", again.Describe())
	}
}

// TestAdviseDeterministic pins the report's stability: same catalog and
// statistics, same advice, in the same order.
func TestAdviseDeterministic(t *testing.T) {
	cat, st := advisorCatalog(t, 3)
	a1, err := Advise(cat, st)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Advise(cat, st)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Describe() != a2.Describe() {
		t.Errorf("advice diverged:\n%s\nvs\n%s", a1.Describe(), a2.Describe())
	}
}

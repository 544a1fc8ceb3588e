package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/types"
)

func eqInt(col string, v int64) expr.Cmp {
	return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: col}, R: expr.Const{V: types.Int(v)}}
}

// Tests for the shared maintenance DAG executor: a group of views over the
// same base tables whose delta-join chains coincide, maintained through
// hoisted shared nodes. They pin the sharing win, the exactness of stage
// attribution, cache invalidation in the shared world (view DROP shrinking
// the group, statistics drift on the shared probe table, concurrent DDL),
// and the reference-counted lifecycle of deduplicated auxiliary relations.

// newSharedTPCR builds the customer / orders / lineitem schema, loaded and
// stats-refreshed.
func newSharedTPCR(t *testing.T, nodes int) *Cluster {
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
	var customers, orders []types.Tuple
	ok := int64(0)
	for ck := int64(0); ck < 16; ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < 2; o++ {
			ok++
			orders = append(orders, ord(ok, ck, float64(ok)*10))
		}
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// createSharedGroup registers n structurally identical auto-strategy views
// over customer ⋈ orders — the executor hoists their common delta-join
// chain into shared DAG nodes.
func createSharedGroup(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.CreateView(jv1Def(fmt.Sprintf("jvs_%02d", i), catalog.StrategyAuto)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkSharedGroup(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.CheckViewConsistency(fmt.Sprintf("jvs_%02d", i)); err != nil {
			t.Fatalf("jvs_%02d: %v", i, err)
		}
	}
}

// TestSharedGroupConsistencyAndAttribution drives inserts and deletes
// through a shared group in both update directions and checks (a) every
// view stays exactly consistent, (b) the hoisted delta joins are attributed
// to their own "sharedjoin" stage, and (c) serial per-stage attribution
// still sums to the cluster's total I/Os — the invariant the unshared
// pipeline already guarantees.
func TestSharedGroupConsistencyAndAttribution(t *testing.T) {
	const nviews = 6
	c := newSharedTPCR(t, 4)
	createSharedGroup(t, c, nviews)
	c.ResetMetrics()

	// Customer inserts probe orders (the shared AR chain); orders inserts
	// probe customer (partitioned on the join attribute, shared route).
	for i := 0; i < 4; i++ {
		if err := c.Insert("customer", []types.Tuple{cust(int64(100+i), 5)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("orders", []types.Tuple{ord(int64(900+i), int64(i), 7)}); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Metrics().Pipeline
	sc, ok := p.Stages["sharedjoin"]
	if !ok || sc.Executions == 0 {
		t.Fatalf("sharedjoin stage did not run: %+v", p.Stages)
	}
	if sc.Pages == 0 {
		t.Error("sharedjoin stage attributed no pages in serial mode")
	}
	// Exact serial attribution over the insert stream (deletes add a victim
	// scan outside the pipeline's stage windows, as in the per-view world).
	var stageSum int64
	for _, s := range p.Stages {
		stageSum += s.Pages
	}
	if total := c.Metrics().TotalIOs(); stageSum != total {
		t.Errorf("per-stage pages %d != total I/Os %d (serial attribution must stay exact)", stageSum, total)
	}

	// Deletes flow through the same shared DAG (OpDelete plans): views must
	// subtract exactly the lost join results.
	if _, err := c.Delete("customer", eqInt("custkey", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("orders", eqInt("orderkey", 901)); err != nil {
		t.Fatal(err)
	}
	checkSharedGroup(t, c, nviews)
}

// TestSharedGroupBeatsPerViewExecution runs the identical statement stream
// against one view and against a shared group of eight: both end exactly
// consistent, and the shared executor does strictly less I/O and messaging
// than eight independent pipelines would — the non-view work once plus
// eight times the one-view run's view stage, which serial dispatch
// attributes exactly.
func TestSharedGroupBeatsPerViewExecution(t *testing.T) {
	const nviews, stmts = 8, 6
	run := func(n int) Metrics {
		c := newSharedTPCR(t, 4)
		createSharedGroup(t, c, n)
		c.ResetMetrics()
		for i := 0; i < stmts; i++ {
			if err := c.Insert("customer", []types.Tuple{cust(int64(200+i), 3)}); err != nil {
				t.Fatal(err)
			}
		}
		m := c.Metrics() // before the consistency checks add their reads
		checkSharedGroup(t, c, n)
		return m
	}
	one, shared := run(1), run(nviews)
	view := one.Pipeline.Stages["view"]
	if view.Pages == 0 || view.Messages == 0 {
		t.Fatalf("one-view run attributed nothing to its view stage: %+v", one.Pipeline.Stages)
	}
	baseIOs := one.TotalIOs() + (nviews-1)*view.Pages
	baseMsgs := one.Net.Messages + (nviews-1)*view.Messages
	if shared.TotalIOs() >= baseIOs {
		t.Errorf("shared execution did not reduce I/O: %d vs %d per-view", shared.TotalIOs(), baseIOs)
	}
	if shared.Net.Messages >= baseMsgs {
		t.Errorf("shared execution did not reduce messages: %d vs %d per-view", shared.Net.Messages, baseMsgs)
	}
}

// TestSharedGroupDropViewInvalidation drops one member of a shared group
// and checks the cached shared plan is evicted, the recompiled DAG no
// longer mentions the dropped view, and — once the group shrinks to one
// view — the plan loses shared potential entirely and the classic per-view
// path takes over.
func TestSharedGroupDropViewInvalidation(t *testing.T) {
	c := newSharedTPCR(t, 4)
	createSharedGroup(t, c, 3)

	// Warm the shared plan and confirm steady-state reuse.
	if err := c.Insert("customer", []types.Tuple{cust(300, 1)}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(301, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheHits != 1 {
		t.Fatalf("warm shared plan not reused: %+v", d)
	}
	out, err := c.ExplainPipeline("customer", "insert")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "executed once, feeds 3 views") {
		t.Errorf("explain before DROP missing 3-view shared node:\n%s", out)
	}

	// DROP one view: the very next insert must recompile against the
	// 2-view group and maintain exactly the survivors.
	if err := c.DropView("jvs_01"); err != nil {
		t.Fatal(err)
	}
	before = c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(302, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("DROP of a shared-group member did not evict the plan: %+v", d)
	}
	for _, v := range []string{"jvs_00", "jvs_02"} {
		if err := c.CheckViewConsistency(v); err != nil {
			t.Fatalf("%s after group shrink: %v", v, err)
		}
	}
	out, err = c.ExplainPipeline("customer", "insert")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "jvs_01") {
		t.Errorf("recompiled DAG still mentions the dropped view:\n%s", out)
	}
	if !strings.Contains(out, "executed once, feeds 2 views") {
		t.Errorf("explain after DROP missing 2-view shared node:\n%s", out)
	}

	// Shrink to a single view: no shared potential, no DAG section, classic
	// path — and still consistent.
	if err := c.DropView("jvs_02"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("customer", []types.Tuple{cust(303, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jvs_00"); err != nil {
		t.Fatal(err)
	}
	out, err = c.ExplainPipeline("customer", "insert")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "shared maintenance DAG") {
		t.Errorf("single-view plan still renders a shared DAG:\n%s", out)
	}
}

// TestSharedGroupStatsDriftInvalidation checks the fanout-dependency guard
// through the shared path: when the statistics of the table the shared
// nodes probe drift, the cached shared plan recompiles, exactly like the
// per-view pipeline's guarantee.
func TestSharedGroupStatsDriftInvalidation(t *testing.T) {
	c := newSharedTPCR(t, 4)
	createSharedGroup(t, c, 3)

	if err := c.Insert("customer", []types.Tuple{cust(400, 1)}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(401, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheHits != 1 {
		t.Fatalf("warm shared plan not reused: %+v", d)
	}
	// Customer inserts probe orders; halve orders' distinct custkey count
	// (doubling the modeled fan-out) and the next insert must recompile.
	ts, ok := c.Stats().Get("orders")
	if !ok {
		t.Fatal("no orders statistics")
	}
	ts.Distinct["custkey"] = ts.Distinct["custkey"] / 2
	c.Stats().Set("orders", ts)
	before = c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(402, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("stats drift on the shared probe table not detected: %+v", d)
	}
	checkSharedGroup(t, c, 3)
}

// TestSharedGroupConcurrentDDLDML races writer sessions updating both base
// tables of a 20-view shared group against repeated CREATE/DROP VIEW of an
// extra group member. No stale shared plan may execute and every view must
// land exactly consistent; -race must stay clean across the shared
// executor's memoization.
func TestSharedGroupConcurrentDDLDML(t *testing.T) {
	const nviews, writers, stmts, ddlRounds = 20, 3, 8, 6
	c := newSharedTPCR(t, 4)
	createSharedGroup(t, c, nviews)

	errs := make([]error, writers+2)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < stmts; j++ {
				ck := int64(1000*(w+1) + j)
				if err := c.Insert("customer", []types.Tuple{cust(ck, float64(j))}); err != nil {
					errs[w] = err
					return
				}
				if j%2 == 1 {
					if _, err := c.Delete("customer", eqInt("custkey", ck)); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < stmts; j++ {
			if err := c.Insert("orders", []types.Tuple{ord(int64(5000+j), int64(j%16), 9)}); err != nil {
				errs[writers] = err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < ddlRounds; r++ {
			if err := c.CreateView(jv1Def("jvs_extra", catalog.StrategyAuto)); err != nil {
				errs[writers+1] = err
				return
			}
			if err := c.DropView("jvs_extra"); err != nil {
				errs[writers+1] = err
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	checkSharedGroup(t, c, nviews)
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoAuxRelDedupAndRefcount pins the deduplicated-AR lifecycle: the
// second view of a group reuses the first view's auto-created AR instead of
// materializing a twin, the AR survives as long as any referencing view
// does, and the last DROP VIEW garbage-collects it.
func TestAutoAuxRelDedupAndRefcount(t *testing.T) {
	c := newSharedTPCR(t, 4)

	if err := c.CreateView(jv1Def("jv_a", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	ars := c.Catalog().AuxRelsFor("orders")
	if len(ars) != 1 || !ars[0].AutoCreated {
		t.Fatalf("first view: want exactly one auto-created AR on orders, got %+v", ars)
	}
	arName := ars[0].Name

	// Identical second view: deduplicated onto the same AR, refcounted.
	if err := c.CreateView(jv1Def("jv_b", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	if got := c.Catalog().AuxRelsFor("orders"); len(got) != 1 {
		t.Fatalf("second identical view materialized a duplicate AR: %+v", got)
	}
	if refs := c.Catalog().AuxRelRefs(arName); len(refs) != 2 || refs[0] != "jv_a" || refs[1] != "jv_b" {
		t.Fatalf("AR refs = %v, want [jv_a jv_b]", refs)
	}

	// Dropping one view keeps the AR alive for the survivor — which must
	// still maintain correctly through it.
	if err := c.DropView("jv_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog().AuxRel(arName); err != nil {
		t.Fatalf("AR dropped while jv_b still references it: %v", err)
	}
	if refs := c.Catalog().AuxRelRefs(arName); len(refs) != 1 || refs[0] != "jv_b" {
		t.Fatalf("AR refs after first drop = %v, want [jv_b]", refs)
	}
	if err := c.Insert("customer", []types.Tuple{cust(500, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv_b"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}

	// Dropping the last referencing view collects the AR and its fragments.
	if err := c.DropView("jv_b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog().AuxRel(arName); err == nil {
		t.Error("auto-created AR survived its last referencing view")
	}
}

// TestUserAuxRelNeverAutoDropped checks the other half of the contract:
// an AR the user materialized explicitly is reused by views but outlives
// them all — only an explicit DropAuxRel removes it.
func TestUserAuxRelNeverAutoDropped(t *testing.T) {
	c := newSharedTPCR(t, 4)
	if err := c.CreateAuxRel(&catalog.AuxRel{
		Name: "ar_mine", Table: "orders", PartitionCol: "custkey",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(jv1Def("jv_a", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	// The view reused the user's AR rather than creating its own.
	if got := c.Catalog().AuxRelsFor("orders"); len(got) != 1 || got[0].Name != "ar_mine" {
		t.Fatalf("view did not reuse the user AR: %+v", got)
	}
	if err := c.DropView("jv_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog().AuxRel("ar_mine"); err != nil {
		t.Fatalf("user-created AR was auto-dropped: %v", err)
	}
	if err := c.DropAuxRel("ar_mine"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog().AuxRel("ar_mine"); err == nil {
		t.Error("explicit DropAuxRel left the AR behind")
	}
}

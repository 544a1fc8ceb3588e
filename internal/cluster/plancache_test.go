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

// TestPlanCacheSteadyStateHitRate pins the pipeline's core economics: a
// steady single-table insert stream compiles once and reuses the plan for
// every later statement (>99% hit rate), even though every statement bumps
// the updated table's own row statistic.
func TestPlanCacheSteadyStateHitRate(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	c.ResetMetrics()
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Insert("customer", []types.Tuple{cust(int64(10_000+i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Metrics().Pipeline
	if p.PlanCacheHits+p.PlanCacheMisses != n {
		t.Fatalf("want %d lookups, got %d hits + %d misses", n, p.PlanCacheHits, p.PlanCacheMisses)
	}
	if p.PlanCacheMisses > 1 {
		t.Errorf("steady-state stream recompiled %d times (want at most 1)", p.PlanCacheMisses)
	}
	if hr := p.HitRate(); hr <= 0.99 {
		t.Errorf("hit rate %.4f, want > 0.99", hr)
	}
}

// TestPlanCacheDDLInvalidation checks that CREATE/DROP VIEW, DROP TABLE
// and a partition-map install publish a new catalog and evict compiled
// plans, that DML publishes none, and that a stale plan never executes:
// maintenance always reflects the catalog as of the statement, not as of
// the last compile.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)

	// Warm the insert plan before any view exists. DML leaves the catalog
	// (and so every cached plan) alone.
	v0 := c.Catalog()
	if err := c.Insert("customer", []types.Tuple{cust(100, 1)}); err != nil {
		t.Fatal(err)
	}
	if c.Catalog() != v0 {
		t.Fatal("an insert published a new catalog")
	}

	// CREATE VIEW must invalidate: the very next insert has to maintain
	// the new view. A stale (view-less) plan would silently skip it.
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	if c.Catalog() == v0 {
		t.Fatal("CreateView did not publish a new catalog")
	}
	before := c.Metrics().Pipeline
	if err := c.Insert("orders", []types.Tuple{ord(900, 100, 5)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("insert after CREATE VIEW: want 1 miss (recompile), got %+v", d)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("view missed a delta after CREATE VIEW: %v", err)
	}

	// DROP VIEW must invalidate too: a stale plan would try to maintain
	// the dropped view's fragments.
	v1 := c.Catalog()
	if err := c.DropView("jv1"); err != nil {
		t.Fatal(err)
	}
	if c.Catalog() == v1 {
		t.Fatal("DropView did not publish a new catalog")
	}
	if err := c.Insert("customer", []types.Tuple{cust(101, 1)}); err != nil {
		t.Fatalf("insert after DROP VIEW executed a stale plan: %v", err)
	}

	// DROP TABLE invalidates every plan (each is valid against its own
	// catalog snapshot only): inserts into the surviving tables recompile,
	// not crash.
	v2 := c.Catalog()
	if err := c.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if c.Catalog() == v2 {
		t.Fatal("DropTable did not publish a new catalog")
	}
	before = c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(102, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("insert after DROP TABLE: want 1 miss (recompile), got %+v", d)
	}

	// And a plan for the dropped table itself can no longer be obtained.
	if err := c.Insert("lineitem", []types.Tuple{li(1, 1, 1)}); err == nil {
		t.Error("insert into dropped table succeeded")
	}

	// A partition-map install (AddNode refines the slot table) publishes
	// a new catalog too: the next insert recompiles against the new map.
	v3 := c.Catalog()
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if c.Catalog() == v3 {
		t.Fatal("AddNode did not publish a new catalog")
	}
	before = c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(103, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("insert after a map install: want 1 miss (recompile), got %+v", d)
	}
}

// TestPlanCacheStatsInvalidation checks the fanout-dependency guard: when
// the statistics of a *probed* table change, the cached plan (whose join
// order and fan-out hints came from those statistics) is recompiled, so
// the pipeline plans exactly like per-statement planning would.
func TestPlanCacheStatsInvalidation(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	// Warm the orders-insert plan; it probes customer.custkey.
	if err := c.Insert("orders", []types.Tuple{ord(901, 1, 5)}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Pipeline
	if err := c.Insert("orders", []types.Tuple{ord(902, 2, 5)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheHits != 1 {
		t.Fatalf("warm plan not reused: %+v", d)
	}
	// Shift the probed table's fan-out (same custkey for all rows halves
	// the distinct count the planner saw) and refresh: the next
	// orders-insert must recompile against the new statistics.
	ts, ok := c.Stats().Get("customer")
	if !ok {
		t.Fatal("no customer statistics")
	}
	ts.Distinct["custkey"] = ts.Distinct["custkey"] / 2
	c.Stats().Set("customer", ts)
	before = c.Metrics().Pipeline
	if err := c.Insert("orders", []types.Tuple{ord(903, 3, 5)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheMisses != 1 {
		t.Errorf("statistics drift on probed table not detected: %+v", d)
	}
	// The updated table's own statistics do NOT invalidate its plans:
	// bumpRows moved customer.Rows on every customer insert above, and
	// customer inserts keep hitting.
	if err := c.Insert("customer", []types.Tuple{cust(200, 1)}); err != nil {
		t.Fatal(err)
	}
	before = c.Metrics().Pipeline
	if err := c.Insert("customer", []types.Tuple{cust(201, 1)}); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Pipeline.Sub(before); d.PlanCacheHits != 1 {
		t.Errorf("self-statistics bump evicted the plan: %+v", d)
	}
}

// TestPlanCacheConcurrentSessionsAndDDL races concurrent writer sessions
// (hitting their cached plans) against repeated CREATE/DROP VIEW DDL
// (bumping the catalog version) and verifies no stale plan ever executes:
// every view reflects exactly the base rows at the end, and -race must
// stay clean across cache lookups, evictions and recompiles.
func TestPlanCacheConcurrentSessionsAndDDL(t *testing.T) {
	const sessions, stmts, ddlRounds = 4, 10, 8
	c := newSessionSchemas(t, 4, sessions, catalog.StrategyAuto)

	// The DDL victim: an extra schema whose view is created and dropped
	// while the sessions run.
	if err := c.CreateTable(&catalog.Table{
		Name: "extra",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "c", Kind: types.KindInt},
		),
		PartitionCol: "id",
	}); err != nil {
		t.Fatal(err)
	}
	extraView := func() *catalog.View {
		return &catalog.View{
			Name:   "jv_extra",
			Tables: []string{"extra", "b0"},
			Joins:  []catalog.JoinPred{{Left: "extra", LeftCol: "c", Right: "b0", RightCol: "d"}},
			Out: []catalog.OutCol{
				{Table: "extra", Col: "id"}, {Table: "extra", Col: "c"}, {Table: "b0", Col: "id"},
			},
			PartitionTable: "extra", PartitionCol: "id",
			Strategy: catalog.StrategyAuto,
		}
	}

	errs := make([]error, sessions+1)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			table := fmt.Sprintf("a%d", s)
			for j := 0; j < stmts; j++ {
				base := int64(1000*(s+1) + 10*j)
				if err := c.Insert(table, []types.Tuple{
					{types.Int(base), types.Int(int64(j % 16))},
				}); err != nil {
					errs[s] = err
					return
				}
				if j%2 == 1 {
					if _, err := c.Delete(table, expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(base)}}); err != nil {
						errs[s] = err
						return
					}
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < ddlRounds; r++ {
			if err := c.CreateView(extraView()); err != nil {
				errs[sessions] = err
				return
			}
			if err := c.Insert("extra", []types.Tuple{
				{types.Int(int64(9000 + r)), types.Int(int64(r % 16))},
			}); err != nil {
				errs[sessions] = err
				return
			}
			if err := c.CheckViewConsistency("jv_extra"); err != nil {
				errs[sessions] = fmt.Errorf("round %d: %w", r, err)
				return
			}
			if err := c.DropView("jv_extra"); err != nil {
				errs[sessions] = err
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
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sessions; s++ {
		if err := c.CheckViewConsistency(fmt.Sprintf("jv%d", s)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineStageCounters checks the per-stage breakdown: in a serial
// execution mode every stage's pages and messages are attributed, and the
// stage kinds cover base, auxrel, globalindex and view for a fully
// equipped table.
func TestPipelineStageCounters(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)
	v := jv1Def("jv1", catalog.StrategyAuto)
	if err := c.CreateView(v); err != nil {
		t.Fatal(err)
	}
	c.ResetMetrics()
	// orders is not partitioned on custkey, so the auto view keeps both an
	// AR and a GI on orders; inserting into orders exercises every stage
	// kind.
	if err := c.Insert("orders", []types.Tuple{ord(910, 1, 5), ord(911, 2, 5)}); err != nil {
		t.Fatal(err)
	}
	p := c.Metrics().Pipeline
	for _, kind := range []string{"base", "view"} {
		sc, ok := p.Stages[kind]
		if !ok || sc.Executions == 0 {
			t.Fatalf("stage %q did not run: %+v", kind, p.Stages)
		}
		if sc.Pages == 0 {
			t.Errorf("stage %q attributed no pages in serial mode", kind)
		}
	}
	var stageSum int64
	for _, sc := range p.Stages {
		stageSum += sc.Pages
	}
	if total := c.Metrics().TotalIOs(); stageSum != total {
		t.Errorf("per-stage pages %d != total I/Os %d (serial attribution must be exact)", stageSum, total)
	}
}

// TestPipelineExplain smoke-tests the pipeline EXPLAIN surface.
func TestPipelineExplain(t *testing.T) {
	c := newTPCR(t, 4, 8, 2, 2)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ExplainPipeline("orders", "insert")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipeline for insert into orders", "base", "view", "jv1"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if _, err := c.ExplainPipeline("orders", "upsert"); err == nil {
		t.Error("unknown op accepted")
	}
}

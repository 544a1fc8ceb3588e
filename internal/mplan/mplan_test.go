package mplan

import (
	"math/rand"
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/cost"
	"joinview/internal/hashpart"
	"joinview/internal/maintain"
	"joinview/internal/plan"
	"joinview/internal/stats"
	"joinview/internal/types"
)

func intTable(name string, cols ...string) *catalog.Table {
	cc := make([]types.Column, len(cols))
	for i, c := range cols {
		cc[i] = types.Column{Name: c, Kind: types.KindInt}
	}
	return &catalog.Table{Name: name, Schema: types.NewSchema(cc...), PartitionCol: cols[0]}
}

func rsView(name string, strategy catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:     name,
		Tables:   []string{"r", "s"},
		Joins:    []catalog.JoinPred{{Left: "r", LeftCol: "k", Right: "s", RightCol: "k"}},
		Strategy: strategy,
	}
}

// testCatalog builds r(k,a) ⋈ s(b,k) with full auxiliary structures on both
// sides, so every strategy is feasible for updates to either table. Both
// tables partition on a non-join attribute of the other side's probe (s on
// b), so the auxrel and globalindex strategies genuinely need their
// structures.
func testCatalog(t *testing.T, views ...*catalog.View) (*catalog.Catalog, *stats.Stats) {
	t.Helper()
	cat := catalog.New()
	for _, tb := range []*catalog.Table{intTable("r", "k", "a"), intTable("s", "b", "k")} {
		tb.ClusterCol = tb.PartitionCol
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, ar := range []*catalog.AuxRel{
		{Name: "ar_r", Table: "r", PartitionCol: "k"},
		{Name: "ar_s", Table: "s", PartitionCol: "k"},
	} {
		if err := cat.AddAuxRel(ar); err != nil {
			t.Fatal(err)
		}
	}
	for _, gi := range []*catalog.GlobalIndex{
		{Name: "gi_r", Table: "r", Col: "k"},
		{Name: "gi_s", Table: "s", Col: "k"},
	} {
		if err := cat.AddGlobalIndex(gi); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range views {
		if err := cat.AddView(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.UsePartitionMap(hashpart.Identity(8)); err != nil {
		t.Fatal(err)
	}
	st := stats.New()
	st.Set("r", stats.TableStats{Rows: 100, Distinct: map[string]int64{"k": 100, "a": 10}})
	st.Set("s", stats.TableStats{Rows: 400, Distinct: map[string]int64{"k": 100, "b": 20}})
	return cat.Build(), st
}

func stageSummary(p *Plan) []string {
	out := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		switch s.Kind {
		case StageBase:
			out[i] = "base"
		case StageAuxRel:
			out[i] = "auxrel:" + s.AR.Name
		case StageGlobalIndex:
			out[i] = "globalindex:" + s.GI.Name
		case StageView:
			out[i] = "view:" + s.View.View.Name
		}
	}
	return out
}

func TestCompileStageOrder(t *testing.T) {
	// Two views added out of name order: the compiled stage list must be
	// base, then ARs, then GIs, then views, each group in name order — the
	// sequence the seed executor used.
	base, st := testCatalog(t, rsView("jvB", catalog.StrategyAuto), rsView("jvA", catalog.StrategyAuto))
	b := base.Builder()
	if err := b.AddAuxRel(&catalog.AuxRel{Name: "aa_r", Table: "r", PartitionCol: "k"}); err != nil {
		t.Fatal(err)
	}
	cat := b.Build()
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"base", "auxrel:aa_r", "auxrel:ar_r", "globalindex:gi_r", "view:jvA", "view:jvB"}
	got := stageSummary(p)
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if p.ARCount != 2 || p.GICount != 1 {
		t.Errorf("ARCount,GICount = %d,%d, want 2,1", p.ARCount, p.GICount)
	}

	// Compilation is deterministic: a second compile renders identically.
	p2, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if p.Describe() != p2.Describe() {
		t.Errorf("recompile diverged:\n%s\nvs\n%s", p.Describe(), p2.Describe())
	}
}

// viewStage compiles the insert plan of table on an l-node partition map
// and returns the named view's stage.
func viewStage(t *testing.T, cat *catalog.Catalog, st *stats.Stats, table, view string, l int) *ViewStage {
	t.Helper()
	b := cat.Builder()
	if err := b.UsePartitionMap(hashpart.Identity(l)); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.Build(), st, table, maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if p.L != l {
		t.Fatalf("plan priced at L=%d, partition map has %d nodes", p.L, l)
	}
	for _, s := range p.Stages {
		if s.Kind == StageView && s.View.View.Name == view {
			return s.View
		}
	}
	t.Fatalf("plan for %s has no stage for view %s", table, view)
	return nil
}

func TestCompileViewPinnedAndAuto(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv_pin", catalog.StrategyNaive), rsView("jv_auto", catalog.StrategyAuto))
	vs := viewStage(t, cat, st, "r", "jv_pin", 8)
	if vs.Strategy != catalog.StrategyNaive || vs.Plan == nil || len(vs.Steps) != len(vs.Plan.Steps) {
		t.Errorf("pinned view compiled to %+v", vs)
	}
	// An update of r probes s on k: the AR is one routed, clustered search
	// per tuple, the GI 1 + f(4) and the broadcast L(8) + f(4), so the
	// compiled auto stage is the AR plan.
	vs = viewStage(t, cat, st, "r", "jv_auto", 8)
	if vs.Strategy != catalog.StrategyAuxRel || vs.Steps[0].Via != plan.ViaRoute {
		t.Errorf("auto view compiled to %v via %v, want auxrel via route", vs.Strategy, vs.Steps[0].Via)
	}
}

func TestCompileViewSkipsInfeasibleStrategies(t *testing.T) {
	// No auxiliary structures on the probed table s, and s partitioned off
	// the join attribute: only naive is feasible for updates to r.
	cat := catalog.New()
	for _, tb := range []*catalog.Table{intTable("r", "k", "a"), intTable("s", "b", "k")} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddView(rsView("jv", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	if err := cat.UsePartitionMap(hashpart.Identity(8)); err != nil {
		t.Fatal(err)
	}
	snap := cat.Build()
	st := stats.New()
	if vs := viewStage(t, snap, st, "r", "jv", 8); vs.Strategy != catalog.StrategyNaive {
		t.Errorf("compiled %v, want naive", vs.Strategy)
	}

	// A pinned strategy whose structures are missing is a compile error, not
	// a silent fallback.
	b := snap.Builder()
	if err := b.AddView(rsView("jv_pin", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(b.Build(), st, "r", maintain.OpInsert); err == nil {
		t.Error("pinned auxrel without an AR compiled without error")
	}
}

func TestCompileNeedsAPartitionMap(t *testing.T) {
	cat := catalog.New()
	if err := cat.AddTable(intTable("r", "k", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(cat.Build(), stats.New(), "r", maintain.OpInsert); err == nil {
		t.Error("compiled without a partition map to price at")
	}
}

func TestCompileTieKeepsEarlierStrategy(t *testing.T) {
	// An update of s probes r on k, and r is partitioned on k: every
	// strategy compiles to the same routed step (paper case 1), so the
	// methods price identically and the tie keeps the earlier one — auxrel.
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	v, _ := cat.View("jv")
	for _, l := range []int{1, 2, 8} {
		vs := viewStage(t, cat, st, "s", "jv", l)
		for _, s := range []catalog.Strategy{catalog.StrategyGlobalIndex, catalog.StrategyNaive} {
			p, err := plan.Build(cat, st, v, "s", s)
			if err != nil {
				t.Fatal(err)
			}
			if steps := stepsOf(p); len(steps) != 1 || steps[0] != vs.Steps[0] || steps[0].Via != plan.ViaRoute {
				t.Fatalf("%s compiled to %+v, want the one routed step %+v", s, steps, vs.Steps)
			}
		}
		if vs.Strategy != catalog.StrategyAuxRel {
			t.Errorf("L=%d: tie compiled to %s, want the earlier auxrel", l, vs.Strategy)
		}
	}
}

// TestCompiledStrategyIsArgminAtEveryDeltaSize is the reason an auto view's
// method is chosen once per compiled plan rather than per statement: over
// random 2- and 3-way views, structure sets, layouts and fan-outs, the
// compiled method is the brute-force minimum of the chain's modeled TW for
// every delta size, because the pricer is linear in the delta size.
func TestCompiledStrategyIsArgminAtEveryDeltaSize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cols := []string{"id", "k", "m"}
	// 960 rows over these distinct counts: f = 1, 1.5, 2, 2.5, 3, 4, 5, 10,
	// 40, each exact in binary, so a tie at a = 1 stays a tie at every a.
	distincts := []int64{960, 640, 480, 384, 320, 240, 192, 96, 24}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	seen := map[catalog.Strategy]int{}
	for trial := 0; trial < 300; trial++ {
		names := []string{"t0", "t1", "t2"}[:2+rng.Intn(2)]
		cat := catalog.New()
		st := stats.New()
		for _, n := range names {
			tb := intTable(n, cols...)
			tb.PartitionCol = pick(cols)
			tb.ClusterCol = pick(append([]string{""}, cols...))
			if err := cat.AddTable(tb); err != nil {
				t.Fatal(err)
			}
			distinct := map[string]int64{}
			for _, c := range cols {
				distinct[c] = distincts[rng.Intn(len(distincts))]
			}
			st.Set(n, stats.TableStats{Rows: 960, Distinct: distinct})
		}
		// A chain: t0.k = t1.k [, t1.m = t2.m].
		v := &catalog.View{Name: "jv", Tables: names, Strategy: catalog.StrategyAuto}
		v.Joins = append(v.Joins, catalog.JoinPred{Left: "t0", LeftCol: "k", Right: "t1", RightCol: "k"})
		if len(names) == 3 {
			v.Joins = append(v.Joins, catalog.JoinPred{Left: "t1", LeftCol: "m", Right: "t2", RightCol: "m"})
		}
		for _, j := range v.Joins {
			for _, side := range [][2]string{{j.Left, j.LeftCol}, {j.Right, j.RightCol}} {
				if rng.Intn(2) == 0 {
					if err := cat.AddAuxRel(&catalog.AuxRel{Name: "ar_" + side[0] + "_" + side[1], Table: side[0], PartitionCol: side[1]}); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 {
					if err := cat.AddGlobalIndex(&catalog.GlobalIndex{Name: "gi_" + side[0] + "_" + side[1], Table: side[0], Col: side[1]}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := cat.AddView(v); err != nil {
			t.Fatal(err)
		}
		snap := cat.Build()
		for _, l := range []int{1, 2, 3, 8, 32} {
			for _, table := range names {
				vs := viewStage(t, snap, st, table, "jv", l)
				seen[vs.Strategy]++
				for _, a := range []int{1, 2, 7, 256, 4096} {
					best, bestTW := catalog.StrategyAuto, 0.0
					for _, s := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyNaive} {
						p, err := plan.Build(snap, st, v, table, s)
						if err != nil {
							continue
						}
						steps := make([]cost.Step, len(p.Steps))
						for i, ps := range p.Steps {
							steps[i] = cost.Step{Via: ps.Via, Fanout: ps.Fanout, Clustered: ps.FragClusteredOnCol}
						}
						if tw, _ := cost.Chain(l, a, steps); best == catalog.StrategyAuto || tw < bestTW {
							best, bestTW = s, tw
						}
					}
					if vs.Strategy != best {
						t.Fatalf("trial %d, update of %s, L=%d a=%d: compiled %v, brute force %v (TW %.1f)",
							trial, table, l, a, vs.Strategy, best, bestTW)
					}
				}
			}
		}
	}
	// The draw must exercise every method, or the argument is vacuous.
	if seen[catalog.StrategyAuxRel] == 0 || seen[catalog.StrategyGlobalIndex] == 0 || seen[catalog.StrategyNaive] == 0 {
		t.Errorf("compiled methods %v: want each of auxrel, globalindex, naive", seen)
	}
}

func TestValidTracksCatalogVersionAndFanoutDeps(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid(cat, st) {
		t.Fatal("fresh plan invalid")
	}
	// Deps record the probed side (s.k) but never the updated table's own
	// statistics.
	foundS := false
	for _, d := range p.Deps {
		if d.Table == "r" {
			t.Errorf("plan depends on the updated table's own stats: %+v", d)
		}
		if d.Table == "s" && d.Col == "k" {
			foundS = true
		}
	}
	if !foundS {
		t.Errorf("deps %v missing s.k", p.Deps)
	}

	// The updated table's stats move after every statement; that must not
	// invalidate the plan.
	st.Set("r", stats.TableStats{Rows: 101, Distinct: map[string]int64{"k": 101, "a": 10}})
	if !p.Valid(cat, st) {
		t.Error("self-stats bump invalidated the plan")
	}
	// A probed table's fan-out drift must.
	st.Set("s", stats.TableStats{Rows: 800, Distinct: map[string]int64{"k": 100, "b": 20}})
	if p.Valid(cat, st) {
		t.Error("probed-table fan-out drift did not invalidate the plan")
	}
	st.Set("s", stats.TableStats{Rows: 400, Distinct: map[string]int64{"k": 100, "b": 20}})
	if !p.Valid(cat, st) {
		t.Fatal("restoring stats did not restore validity")
	}
	// Any DDL publishes a new catalog and invalidates every plan compiled
	// against the old one.
	b := cat.Builder()
	if err := b.AddIndex("s", catalog.Index{Name: "ix_b", Col: "b"}); err != nil {
		t.Fatal(err)
	}
	if p.Valid(b.Build(), st) {
		t.Error("a new catalog snapshot did not invalidate the plan")
	}
}

func TestCacheGetHitMissEvict(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	c := NewCache()
	p1, hit, err := c.Get(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup hit")
	}
	p2, hit, err := c.Get(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p2 != p1 {
		t.Error("second lookup did not reuse the cached plan")
	}
	// Ops cache independently.
	if _, hit, _ := c.Get(cat, st, "r", maintain.OpDelete); hit {
		t.Error("delete plan hit off the insert entry")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}

	// DDL invalidates; the next lookup recompiles in place.
	b := cat.Builder()
	if err := b.DropView("jv"); err != nil {
		t.Fatal(err)
	}
	cat = b.Build()
	p3, hit, err := c.Get(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if hit || p3 == p1 {
		t.Error("stale plan returned after DDL")
	}
	if p3.Cat == p1.Cat || p3.Cat != cat {
		t.Error("recompiled plan kept the old catalog")
	}

	// When recompilation fails (table gone), the stale entry is evicted.
	b = cat.Builder()
	for _, ar := range []string{"ar_r", "ar_s"} {
		if err := b.DropAuxRel(ar); err != nil {
			t.Fatal(err)
		}
	}
	for _, gi := range []string{"gi_r", "gi_s"} {
		if err := b.DropGlobalIndex(gi); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []string{"s", "r"} {
		if err := b.DropTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	cat = b.Build()
	if _, _, err := c.Get(cat, st, "r", maintain.OpInsert); err == nil {
		t.Fatal("Get succeeded for a dropped table")
	}
	if _, ok := c.Peek("r", maintain.OpInsert); ok {
		t.Error("stale plan survived a failed recompile")
	}

	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
}

func TestDescribe(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto), rsView("jv_pin", catalog.StrategyGlobalIndex))
	p, err := Compile(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{
		"pipeline for insert into r",
		"base",
		"ar_r", "gi_r",
		"jv (auto: auxrel)",
		"jv_pin (pinned: globalindex)",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	pd, err := Compile(cat, st, "r", maintain.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pd.Describe(), "pipeline for delete into r") {
		t.Errorf("delete Describe:\n%s", pd.Describe())
	}
}

package mplan

import (
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/cost"
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
	st := stats.New()
	st.Set("r", stats.TableStats{Rows: 100, Distinct: map[string]int64{"k": 100, "a": 10}})
	st.Set("s", stats.TableStats{Rows: 400, Distinct: map[string]int64{"k": 100, "b": 20}})
	return cat, st
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
	cat, st := testCatalog(t, rsView("jvB", catalog.StrategyAuto), rsView("jvA", catalog.StrategyAuto))
	if err := cat.AddAuxRel(&catalog.AuxRel{Name: "aa_r", Table: "r", PartitionCol: "k"}); err != nil {
		t.Fatal(err)
	}
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

func TestCompileViewPinnedAndAuto(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv_pin", catalog.StrategyNaive), rsView("jv_auto", catalog.StrategyAuto))

	pin, _ := cat.View("jv_pin")
	vs, err := CompileView(cat, st, pin, "r")
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Pinned || len(vs.Options) != 1 || vs.Options[0].Strategy != catalog.StrategyNaive {
		t.Errorf("pinned view compiled to %+v", vs)
	}
	// Pinned bypasses the advisor: Choose returns the single option for any
	// delta size.
	for _, a := range []int{1, 1000} {
		if got := vs.Choose(8, a); got.Strategy != catalog.StrategyNaive {
			t.Errorf("pinned Choose(a=%d) = %v", a, got.Strategy)
		}
	}

	auto, _ := cat.View("jv_auto")
	vs, err = CompileView(cat, st, auto, "r")
	if err != nil {
		t.Fatal(err)
	}
	if vs.Pinned {
		t.Error("auto view compiled as pinned")
	}
	wantOrder := []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyNaive}
	if len(vs.Options) != len(wantOrder) {
		t.Fatalf("auto view has %d options, want %d", len(vs.Options), len(wantOrder))
	}
	for i, s := range wantOrder {
		if vs.Options[i].Strategy != s {
			t.Errorf("option %d = %v, want %v", i, vs.Options[i].Strategy, s)
		}
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
	st := stats.New()
	v, _ := cat.View("jv")
	vs, err := CompileView(cat, st, v, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Options) != 1 || vs.Options[0].Strategy != catalog.StrategyNaive {
		t.Errorf("options = %v, want [naive]", vs.Options)
	}

	// A pinned strategy whose structures are missing is a compile error, not
	// a silent fallback.
	if err := cat.AddView(rsView("jv_pin", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	pin, _ := cat.View("jv_pin")
	if _, err := CompileView(cat, st, pin, "r"); err == nil {
		t.Error("pinned auxrel without an AR compiled without error")
	}
}

func TestChooseStrictLessKeepsEarlierOption(t *testing.T) {
	// An update of s probes r on k, and r is partitioned on k: every
	// strategy compiles to the same routed step (paper case 1), so the
	// options price identically and the tie keeps the earlier one — auxrel.
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	v, _ := cat.View("jv")
	vs, err := CompileView(cat, st, v, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Options) != 3 {
		t.Fatalf("options = %v, want all three strategies", optionNames(vs.Options))
	}
	for _, o := range vs.Options {
		if len(o.Steps) != 1 || o.Steps[0] != vs.Options[0].Steps[0] || o.Steps[0].Via != plan.ViaRoute {
			t.Fatalf("%s compiled to %+v, want the one routed step %+v", o.Strategy, o.Steps, vs.Options[0].Steps)
		}
	}
	for _, l := range []int{1, 2, 8} {
		for _, a := range []int{1, 16, 1000} {
			if got := vs.Choose(l, a); got != &vs.Options[0] {
				t.Errorf("L=%d a=%d: tie picked %s, want the earlier auxrel", l, a, got.Strategy)
			}
		}
	}
}

func TestChooseMatchesBruteForceMinimum(t *testing.T) {
	cat, st := testCatalog(t, rsView("jv", catalog.StrategyAuto))
	v, _ := cat.View("jv")
	vs, err := CompileView(cat, st, v, "r")
	if err != nil {
		t.Fatal(err)
	}
	// Price each option's compiled plan step by step, by Via.
	price := func(o *StrategyOption, l, a int) float64 {
		steps := make([]cost.Step, len(o.Plan.Steps))
		for i, s := range o.Plan.Steps {
			steps[i] = cost.Step{Via: s.Via, Fanout: s.Fanout, Clustered: s.FragClusteredOnCol}
		}
		tw, _ := cost.Chain(l, a, steps)
		return tw
	}
	for _, l := range []int{1, 2, 8} {
		for _, a := range []int{1, 8, 64, 512, 4096} {
			got := vs.Choose(l, a)
			best, bestTW := &vs.Options[0], price(&vs.Options[0], l, a)
			for i := 1; i < len(vs.Options); i++ {
				if tw := price(&vs.Options[i], l, a); tw < bestTW {
					best, bestTW = &vs.Options[i], tw
				}
			}
			if got != best || got.TW(l, a) != bestTW {
				t.Errorf("L=%d a=%d: Choose picked %v (TW %.1f), brute force %v (TW %.1f)",
					l, a, got.Strategy, got.TW(l, a), best.Strategy, bestTW)
			}
		}
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
	// Any catalog mutation bumps the version and invalidates every plan.
	if err := cat.AddIndex("s", catalog.Index{Name: "ix_b", Col: "b"}); err != nil {
		t.Fatal(err)
	}
	if p.Valid(cat, st) {
		t.Error("catalog version bump did not invalidate the plan")
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
	if err := cat.DropView("jv"); err != nil {
		t.Fatal(err)
	}
	p3, hit, err := c.Get(cat, st, "r", maintain.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	if hit || p3 == p1 {
		t.Error("stale plan returned after DDL")
	}
	if p3.Version == p1.Version {
		t.Error("recompiled plan kept the old catalog version")
	}

	// When recompilation fails (table gone), the stale entry is evicted.
	for _, ar := range []string{"ar_r", "ar_s"} {
		if err := cat.DropAuxRel(ar); err != nil {
			t.Fatal(err)
		}
	}
	for _, gi := range []string{"gi_r", "gi_s"} {
		if err := cat.DropGlobalIndex(gi); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []string{"s", "r"} {
		if err := cat.DropTable(tb); err != nil {
			t.Fatal(err)
		}
	}
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
		"jv (adaptive: auxrel|globalindex|naive)",
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

// Package mplan compiles the full maintenance work of one DML statement —
// base mutation, auxiliary-relation redistribution, global-index upkeep
// and view-delta propagation — into a reusable stage DAG, so the hot write
// path plans once per (table, op) instead of once per statement.
//
// A compiled Plan is pure metadata: it pins the catalog objects, each
// view's maintenance method with its delta-join plan and priced steps, and
// records which relational statistics and partition map it read. The
// cluster's pipeline executor walks the stages. An auto view's method is
// priced once, here: the pricer is linear in the delta size, so the
// cheapest method for one tuple is the cheapest for every delta, and
// everything else the price reads (structures, fan-outs, L) invalidates
// the plan when it moves.
package mplan

import (
	"fmt"
	"sort"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/cost"
	"joinview/internal/maintain"
	"joinview/internal/plan"
	"joinview/internal/stats"
)

// StageKind classifies one stage of a compiled maintenance plan.
type StageKind uint8

// Stage kinds, in the order the executor runs them: the base mutation,
// then every auxiliary relation, then every global index, then every view.
const (
	StageBase StageKind = iota
	StageAuxRel
	StageGlobalIndex
	StageView
)

func (k StageKind) String() string {
	switch k {
	case StageBase:
		return "base"
	case StageAuxRel:
		return "auxrel"
	case StageGlobalIndex:
		return "globalindex"
	case StageView:
		return "view"
	default:
		return fmt.Sprintf("stage(%d)", uint8(k))
	}
}

// FanoutDep records one statistics value the compiled plan depends on.
// plan.Build orders delta joins by the fan-outs of the *probed* tables, so
// a compiled plan is only reusable while those fan-outs are unchanged —
// the updated table's own statistics (bumped after every statement) are
// never probed for its own updates and are deliberately not recorded.
type FanoutDep struct {
	Table, Col string
	Fanout     float64
}

// ViewStage is the compiled propagation work for one view: the maintenance
// method it runs for updates of the plan's table and that method's
// delta-join plan. The method is fixed when the plan compiles, like the
// join order: a pinned view runs its strategy, an auto view the cheapest
// feasible one (compileView).
type ViewStage struct {
	View     *catalog.View
	Strategy catalog.Strategy
	Plan     *plan.Plan
	// Steps is Plan projected onto the cost model, one cost.Step per plan
	// step, keyed by its ChainKey.
	Steps []cost.Step
}

// Stage is one unit of a compiled plan. Exactly one of AR, GI, View is set
// for the non-base kinds; the executor interprets the base stage by the
// plan's Op.
type Stage struct {
	Kind StageKind
	AR   *catalog.AuxRel
	GI   *catalog.GlobalIndex
	View *ViewStage
}

// Plan is the compiled maintenance pipeline for one (table, op) pair.
type Plan struct {
	Table *catalog.Table
	Op    maintain.Op
	// Stages in execution order: base, ARs (name order), GIs (name order),
	// views (name order) — the sequence the paper's method descriptions
	// and the seed executor use.
	Stages []Stage
	// ARCount/GICount are the updated table's auxiliary-structure counts:
	// the upkeep SharedTW charges.
	ARCount, GICount int
	// Views is the full dependent-view set the plan was compiled for, in
	// name (= stage) order. Together with (Table, Op) it is the logical
	// cache key of the shared world: any view joining or leaving the table
	// changes the set — and bumps the catalog version, which is how Valid
	// detects it without re-listing views on the hot path.
	Views []string
	// SharedPotential reports that at least two dependent views run
	// delta-join chains that start with the same structural prefix, so the
	// shared-DAG executor can hoist work. False means per-view execution is
	// already optimal and the executor takes the unshared path unchanged.
	SharedPotential bool
	// Version is the catalog version the plan was compiled against.
	Version uint64
	// PartEpoch is the partition-map epoch the plan was compiled against:
	// node homes are baked into a plan's routing, so an elastic topology
	// change (slot reassignment at migration cutover) must force a
	// recompile even though the schema version is untouched.
	PartEpoch uint64
	// L is the node count of that partition map: the cluster size the
	// plan's methods were priced at.
	L int
	// Deps are the statistics reads the plan's join orders depend on.
	Deps []FanoutDep
}

// Compile builds the maintenance plan for one (table, op) from the catalog,
// its installed partition map and current statistics.
func Compile(cat *catalog.Catalog, st *stats.Stats, table string, op maintain.Op) (*Plan, error) {
	version := cat.Version()
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	pm, ok := cat.PartitionMap()
	if !ok {
		return nil, fmt.Errorf("mplan: catalog has no partition map")
	}
	mp := &Plan{Table: t, Op: op, Version: version, PartEpoch: pm.Epoch, L: pm.Nodes}
	mp.Stages = append(mp.Stages, Stage{Kind: StageBase})
	ars := cat.AuxRelsFor(table)
	for _, ar := range ars {
		mp.Stages = append(mp.Stages, Stage{Kind: StageAuxRel, AR: ar})
	}
	mp.ARCount = len(ars)
	gis := cat.GlobalIndexesFor(table)
	for _, gi := range gis {
		mp.Stages = append(mp.Stages, Stage{Kind: StageGlobalIndex, GI: gi})
	}
	mp.GICount = len(gis)
	deps := depSet{}
	for _, v := range cat.ViewsOn(table) {
		vs, err := compileView(cat, st, v, table, mp.L)
		if err != nil {
			return nil, err
		}
		mp.Stages = append(mp.Stages, Stage{Kind: StageView, View: vs})
		mp.Views = append(mp.Views, v.Name)
		deps.recordView(st, v, table)
	}
	mp.Deps = deps.list()
	mp.SharedPotential = sharedPotential(mp)
	return mp, nil
}

// sharedPotential reports whether any two view stages run chains that
// begin with the same structural step. A shared prefix of any depth
// necessarily shares its first step, so checking the chain roots is both
// sufficient and cheap; single-view plans can never share.
func sharedPotential(mp *Plan) bool {
	roots := map[string]bool{}
	for i := range mp.Stages {
		s := &mp.Stages[i]
		if s.Kind != StageView || len(s.View.Plan.Steps) == 0 {
			continue
		}
		key := s.View.Plan.Steps[0].ChainKey
		if roots[key] {
			return true
		}
		roots[key] = true
	}
	return false
}

// compileView compiles the propagation stage for one view on an l-node
// cluster: the pinned strategy's plan, or — for StrategyAuto — the feasible
// strategy whose chain has the least modeled TW (the paper's total
// workload). Upkeep of the updated table's own structures is left out: the
// pipeline runs every one of them whatever a view picks, so it cannot tip
// the choice. The chain is priced for one delta tuple; Step.Price charges
// in proportion to its input and the chain only scales that input by
// fan-outs, so the ranking holds for every delta size. Strict minimum, ties
// to the earlier of auxrel, globalindex, naive.
func compileView(cat *catalog.Catalog, st *stats.Stats, v *catalog.View, table string, l int) (*ViewStage, error) {
	if s := v.StrategyFor(table); s != catalog.StrategyAuto {
		p, err := plan.Build(cat, st, v, table, s)
		if err != nil {
			return nil, err
		}
		return &ViewStage{View: v, Strategy: s, Plan: p, Steps: stepsOf(p)}, nil
	}
	var best *ViewStage
	var bestTW float64
	for _, s := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyNaive} {
		p, err := plan.Build(cat, st, v, table, s)
		if err != nil {
			continue // structures missing: strategy unavailable
		}
		steps := stepsOf(p)
		if tw, _ := cost.Chain(l, 1, steps); best == nil || tw < bestTW {
			best, bestTW = &ViewStage{View: v, Strategy: s, Plan: p, Steps: steps}, tw
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mplan: view %q has no feasible maintenance strategy for table %q", v.Name, table)
	}
	return best, nil
}

// stepsOf projects a delta-join plan onto the cost model — the one
// projection, made once per view stage at compile time.
func stepsOf(p *plan.Plan) []cost.Step {
	steps := make([]cost.Step, len(p.Steps))
	for i, s := range p.Steps {
		steps[i] = cost.Step{Via: s.Via, Fanout: s.Fanout, Clustered: s.FragClusteredOnCol, Key: s.ChainKey}
	}
	return steps
}

// Valid reports whether the plan may still be executed: the catalog has
// not moved and every statistics value the join orders were derived from
// is unchanged.
func (p *Plan) Valid(cat *catalog.Catalog, st *stats.Stats) bool {
	if cat.Version() != p.Version {
		return false
	}
	if cat.PartitionEpoch() != p.PartEpoch {
		return false
	}
	for _, d := range p.Deps {
		if st.Fanout(d.Table, d.Col) != d.Fanout {
			return false
		}
	}
	return true
}

// Describe renders the compiled pipeline for EXPLAIN-style tooling.
func (p *Plan) Describe() string {
	var sb strings.Builder
	op := "insert"
	if p.Op == maintain.OpDelete {
		op = "delete"
	}
	fmt.Fprintf(&sb, "pipeline for %s into %s (catalog v%d, %d stages)\n", op, p.Table.Name, p.Version, len(p.Stages))
	for i, s := range p.Stages {
		switch s.Kind {
		case StageBase:
			fmt.Fprintf(&sb, "  stage %d: %-11s %s\n", i+1, s.Kind, p.Table.Name)
		case StageAuxRel:
			fmt.Fprintf(&sb, "  stage %d: %-11s %s (on %s)\n", i+1, s.Kind, s.AR.Name, s.AR.PartitionCol)
		case StageGlobalIndex:
			fmt.Fprintf(&sb, "  stage %d: %-11s %s (on %s)\n", i+1, s.Kind, s.GI.Name, s.GI.Col)
		case StageView:
			mode := "pinned"
			if s.View.View.StrategyFor(p.Table.Name) == catalog.StrategyAuto {
				mode = "auto"
			}
			fmt.Fprintf(&sb, "  stage %d: %-11s %s (%s: %s)\n", i+1, s.Kind, s.View.View.Name, mode, s.View.Strategy)
		}
	}
	if p.SharedPotential {
		fmt.Fprintf(&sb, "  shared: %d views have common delta-join prefixes; executor hoists them into shared DAG nodes\n", len(p.Views))
	}
	return sb.String()
}

// depSet deduplicates fan-out dependencies while compiling.
type depSet map[[2]string]float64

// recordView records the fan-out of every join-predicate side of v that is
// not the updated table — a superset of the statistics plan.Build can read
// while ordering the view's delta joins (the updated table starts covered,
// so its own fan-outs are never probed).
func (d depSet) recordView(st *stats.Stats, v *catalog.View, table string) {
	for _, j := range v.Joins {
		for _, side := range []struct{ t, col string }{{j.Left, j.LeftCol}, {j.Right, j.RightCol}} {
			if side.t == table {
				continue
			}
			d[[2]string{side.t, side.col}] = st.Fanout(side.t, side.col)
		}
	}
}

func (d depSet) list() []FanoutDep {
	if len(d) == 0 {
		return nil
	}
	out := make([]FanoutDep, 0, len(d))
	for k, f := range d {
		out = append(out, FanoutDep{Table: k[0], Col: k[1], Fanout: f})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Table != out[b].Table {
			return out[a].Table < out[b].Table
		}
		return out[a].Col < out[b].Col
	})
	return out
}

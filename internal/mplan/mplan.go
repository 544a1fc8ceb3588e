// Package mplan compiles the full maintenance work of one DML statement —
// base mutation, auxiliary-relation redistribution, global-index upkeep
// and view-delta propagation — into a reusable stage DAG, so the hot write
// path plans once per (table, op) instead of once per statement.
//
// A compiled Plan is pure metadata: it pins the catalog objects and the
// per-view maintenance options (one precompiled delta-join plan plus its
// priced steps per feasible strategy), and records which relational
// statistics it read. The cluster's pipeline executor walks the stages;
// the strategy for each view is chosen at execution time from the
// precompiled options using the cost advisor with the actual delta size,
// so a cached plan adapts to the workload without re-planning.
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

// StrategyOption is one feasible maintenance method for a view, with its
// delta-join plan and that plan's priced steps precompiled.
type StrategyOption struct {
	Strategy catalog.Strategy
	Plan     *plan.Plan
	// Steps is Plan projected onto the cost model, one cost.Step per plan
	// step, keyed by its ChainKey.
	Steps []cost.Step
}

// TW returns the option's modeled total workload (the paper's TW: I/Os
// summed over nodes) for a delta of a tuples on an l-node cluster: its
// delta-join chain, priced step by step by Via. The upkeep of the updated
// table's own auxiliary structures is not included — Compile runs every one
// of them whatever a view picks, so it is sunk and cannot tip the choice.
func (o *StrategyOption) TW(l, a int) float64 {
	tw, _ := cost.Chain(l, a, o.Steps)
	return tw
}

// ViewStage is the compiled propagation work for one view.
type ViewStage struct {
	View *catalog.View
	// Pinned reports that the view definition fixes the strategy for this
	// table (View.Strategy or an override), in which case Options has
	// exactly one entry and the advisor is bypassed.
	Pinned bool
	// Options lists the feasible maintenance methods in advisor preference
	// order (auxrel, globalindex, naive); ties in modeled cost keep the
	// earlier option.
	Options []StrategyOption
}

// Choose picks the option used for a delta of a tuples: the pinned option,
// or the minimum modeled TW among the precompiled options.
func (vs *ViewStage) Choose(l, a int) *StrategyOption {
	best := &vs.Options[0]
	if vs.Pinned {
		return best
	}
	bestTW := best.TW(l, a)
	for i := 1; i < len(vs.Options); i++ {
		o := &vs.Options[i]
		if tw := o.TW(l, a); tw < bestTW {
			best, bestTW = o, tw
		}
	}
	return best
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
	// SharedPotential reports that at least two dependent views have
	// maintenance options whose delta-join chains start with the same
	// structural prefix, so the shared-DAG executor can hoist work. False
	// means per-view execution is already optimal and the executor takes
	// the unshared path unchanged.
	SharedPotential bool
	// Version is the catalog version the plan was compiled against.
	Version uint64
	// PartEpoch is the partition-map epoch the plan was compiled against:
	// node homes are baked into a plan's routing, so an elastic topology
	// change (slot reassignment at migration cutover) must force a
	// recompile even though the schema version is untouched.
	PartEpoch uint64
	// Deps are the statistics reads the plan's join orders depend on.
	Deps []FanoutDep
}

// Compile builds the maintenance plan for one (table, op) from the catalog
// and current statistics.
func Compile(cat *catalog.Catalog, st *stats.Stats, table string, op maintain.Op) (*Plan, error) {
	version := cat.Version()
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	mp := &Plan{Table: t, Op: op, Version: version, PartEpoch: cat.PartitionEpoch()}
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
		vs, err := CompileView(cat, st, v, table)
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

// sharedPotential reports whether any two view stages have options whose
// chains begin with the same structural step. A shared prefix of any depth
// necessarily shares its first step, so checking the chain roots is both
// sufficient and cheap; single-view plans can never share.
func sharedPotential(mp *Plan) bool {
	// first ChainKey -> index of the first view stage that has it.
	roots := map[string]int{}
	viewIdx := -1
	for i := range mp.Stages {
		s := &mp.Stages[i]
		if s.Kind != StageView {
			continue
		}
		viewIdx++
		for oi := range s.View.Options {
			steps := s.View.Options[oi].Plan.Steps
			if len(steps) == 0 {
				continue
			}
			key := steps[0].ChainKey
			if first, ok := roots[key]; ok {
				if first != viewIdx {
					return true
				}
			} else {
				roots[key] = viewIdx
			}
		}
	}
	return false
}

// CompileView compiles the propagation stage for one view: the pinned
// strategy's plan, or — for StrategyAuto — every feasible strategy's plan
// in advisor preference order.
func CompileView(cat *catalog.Catalog, st *stats.Stats, v *catalog.View, table string) (*ViewStage, error) {
	vs := &ViewStage{View: v}
	if s := v.StrategyFor(table); s != catalog.StrategyAuto {
		p, err := plan.Build(cat, st, v, table, s)
		if err != nil {
			return nil, err
		}
		vs.Pinned = true
		vs.Options = []StrategyOption{{Strategy: s, Plan: p, Steps: stepsOf(p)}}
		return vs, nil
	}
	for _, s := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyNaive} {
		p, err := plan.Build(cat, st, v, table, s)
		if err != nil {
			continue // structures missing: strategy unavailable
		}
		vs.Options = append(vs.Options, StrategyOption{Strategy: s, Plan: p, Steps: stepsOf(p)})
	}
	if len(vs.Options) == 0 {
		return nil, fmt.Errorf("mplan: view %q has no feasible maintenance strategy for table %q", v.Name, table)
	}
	return vs, nil
}

// stepsOf projects a delta-join plan onto the cost model — the one
// projection, made once per option at compile time.
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
			mode := "adaptive"
			if s.View.Pinned {
				mode = "pinned"
			}
			fmt.Fprintf(&sb, "  stage %d: %-11s %s (%s: %s)\n", i+1, s.Kind, s.View.View.Name, mode, optionNames(s.View.Options))
		}
	}
	if p.SharedPotential {
		fmt.Fprintf(&sb, "  shared: %d views have common delta-join prefixes; executor hoists them into shared DAG nodes\n", len(p.Views))
	}
	return sb.String()
}

func optionNames(opts []StrategyOption) string {
	names := make([]string, len(opts))
	for i, o := range opts {
		names[i] = o.Strategy.String()
	}
	return strings.Join(names, "|")
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

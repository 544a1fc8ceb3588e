package mplan

import (
	"fmt"
	"hash/fnv"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/cost"
	"joinview/internal/maintain"
	"joinview/internal/plan"
)

// The shared maintenance DAG: the per-(table, op) plan's view stages,
// viewed not as independent chains but as a prefix-sharing tree rooted at
// the update delta. Every delta-join step carries a structural ChainKey
// (internal/plan); steps with equal keys are one DAG node, executed once
// per statement and fanned out to every dependent view. Each view stage's
// method is fixed at compile time, so the DAG is a property of the plan;
// this file renders it for EXPLAIN tooling and prices it for the cost
// model.

// DAGNode is one hoisted delta-join node of the shared maintenance DAG.
type DAGNode struct {
	// Key is the node's structural chain identity (plan.Step.ChainKey).
	Key string
	// Step is the delta-join step the node executes (identical across all
	// plans that reference the node, by construction of ChainKey).
	Step plan.Step
	// Depth is the node's position in its chain (0 = joins directly
	// against the update delta).
	Depth int
	// Views are the dependent views, in stage (= name) order.
	Views []string
}

// Shared reports whether the node feeds more than one view.
func (n *DAGNode) Shared() bool { return len(n.Views) > 1 }

// DAG returns the plan's shared maintenance DAG: one node per distinct
// chain prefix of the view stages' compiled plans, in execution order
// (parents always precede children).
func (p *Plan) DAG() []DAGNode {
	var nodes []DAGNode
	index := map[string]int{}
	for i := range p.Stages {
		s := &p.Stages[i]
		if s.Kind != StageView {
			continue
		}
		for depth, step := range s.View.Plan.Steps {
			if ni, ok := index[step.ChainKey]; ok {
				nodes[ni].Views = append(nodes[ni].Views, s.View.View.Name)
				continue
			}
			index[step.ChainKey] = len(nodes)
			nodes = append(nodes, DAGNode{
				Key:   step.ChainKey,
				Step:  step,
				Depth: depth,
				Views: []string{s.View.View.Name},
			})
		}
	}
	return nodes
}

// SharedTW returns the modeled total workload of the plan's delta-join
// chains for a delta of a tuples on the plan's L nodes — shared DAG pricing
// (each distinct node once) and independent per-view pricing. Upkeep of the
// updated table's own auxiliary structures is included in both (it is
// charged once either way).
func (p *Plan) SharedTW(a int) (shared, independent float64) {
	var chains [][]cost.Step
	for i := range p.Stages {
		if s := &p.Stages[i]; s.Kind == StageView {
			chains = append(chains, s.View.Steps)
		}
	}
	return cost.Shared(p.L, a, p.ARCount+p.GICount, chains)
}

// ShortKey compresses a structural chain key into a stable 8-hex-digit tag
// for display.
func ShortKey(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	return fmt.Sprintf("%08x", h.Sum32())
}

// DescribeDAG renders the shared maintenance DAG the executor runs,
// annotating each hoisted node with how many views consume its result, and
// prices it for a delta of a tuples.
func (p *Plan) DescribeDAG(a int) string {
	var sb strings.Builder
	op := "insert"
	if p.Op == maintain.OpDelete {
		op = "delete"
	}
	nodes := p.DAG()
	fmt.Fprintf(&sb, "shared maintenance DAG for %s into %s (delta %d, L=%d, %d views)\n",
		op, p.Table.Name, a, p.L, len(p.Views))
	if len(nodes) == 0 {
		sb.WriteString("  (no dependent views)\n")
		return sb.String()
	}
	perView := 0
	for ni := range nodes {
		n := &nodes[ni]
		perView += len(n.Views)
		indent := strings.Repeat("  ", n.Depth+1)
		fmt.Fprintf(&sb, "%snode %s: %s join %s via %s on %s = %s.%s",
			indent, ShortKey(n.Key), n.Step.Via, n.Step.Table, n.Step.Frag,
			n.Step.DeltaCol, n.Step.Table, n.Step.FragCol)
		if n.Shared() {
			fmt.Fprintf(&sb, " — executed once, feeds %d views: %s", len(n.Views), joinCapped(n.Views, 6))
		} else {
			fmt.Fprintf(&sb, " — feeds view %s", n.Views[0])
		}
		sb.WriteByte('\n')
	}
	byStrategy := map[catalog.Strategy]int{}
	for i := range p.Stages {
		if s := &p.Stages[i]; s.Kind == StageView {
			byStrategy[s.View.Strategy]++
		}
	}
	var stratParts []string
	for _, s := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyNaive} {
		if byStrategy[s] > 0 {
			stratParts = append(stratParts, fmt.Sprintf("%d %s", byStrategy[s], s))
		}
	}
	shared, independent := p.SharedTW(a)
	fmt.Fprintf(&sb, "  %d DAG nodes replace %d per-view steps (%s); modeled TW %.0f vs %.0f unshared",
		len(nodes), perView, strings.Join(stratParts, ", "), shared, independent)
	if independent > 0 && shared < independent {
		fmt.Fprintf(&sb, " (%.1f%% saved)", 100*(1-shared/independent))
	}
	sb.WriteByte('\n')
	return sb.String()
}

// joinCapped joins names, eliding the tail past max.
func joinCapped(names []string, max int) string {
	if len(names) <= max {
		return strings.Join(names, ", ")
	}
	return strings.Join(names[:max], ", ") + fmt.Sprintf(", … (+%d more)", len(names)-max)
}

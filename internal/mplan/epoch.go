package mplan

import (
	"fmt"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/maintain"
	"joinview/internal/stats"
)

// This file is the batched-delta entry point of the compiled maintenance
// pipeline: one flush epoch of the async queue compiles to an ordered
// list of per-group pipeline runs, each reusing the same per-(table, op)
// Plan the synchronous write path executes — an epoch is the per-statement
// pipeline amortized over a compacted delta, not a different algorithm.

// GroupSpec names one compacted delta group of an epoch: every tuple of
// the group flows through one (table, op) pipeline run.
type GroupSpec struct {
	Table string
	Op    maintain.Op
	// DeltaSize is the compacted group's tuple count, for display only: the
	// plan's methods do not depend on it.
	DeltaSize int
}

// EpochStep pairs one group with its compiled plan.
type EpochStep struct {
	Group GroupSpec
	Plan  *Plan
}

// EpochPlan is the compiled maintenance work of one flush epoch: the
// groups' pipelines in execution order (per table: deletes before
// inserts, so a net row movement lands in its final position).
type EpochPlan struct {
	Steps []EpochStep
}

// CompileEpoch builds the epoch plan for the given groups in order. fetch
// resolves one (table, op) plan — pass the cluster's cached lookup so an
// epoch compiles each distinct (table, op) pair at most once per cache
// generation, or nil to compile from the catalog directly.
func CompileEpoch(cat *catalog.Catalog, st *stats.Stats, groups []GroupSpec,
	fetch func(table string, op maintain.Op) (*Plan, error)) (*EpochPlan, error) {
	if fetch == nil {
		fetch = func(table string, op maintain.Op) (*Plan, error) {
			return Compile(cat, st, table, op)
		}
	}
	ep := &EpochPlan{Steps: make([]EpochStep, 0, len(groups))}
	for _, g := range groups {
		p, err := fetch(g.Table, g.Op)
		if err != nil {
			return nil, fmt.Errorf("mplan: epoch group (%s, %s): %w", g.Table, g.Op, err)
		}
		ep.Steps = append(ep.Steps, EpochStep{Group: g, Plan: p})
	}
	return ep, nil
}

// Describe renders the epoch plan for EXPLAIN-style tooling.
func (ep *EpochPlan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch plan (%d groups)\n", len(ep.Steps))
	for i, s := range ep.Steps {
		op := "insert"
		if s.Group.Op == maintain.OpDelete {
			op = "delete"
		}
		fmt.Fprintf(&sb, " group %d: %s %d tuple(s) into %s (%d stages)\n",
			i+1, op, s.Group.DeltaSize, s.Group.Table, len(s.Plan.Stages))
	}
	return sb.String()
}

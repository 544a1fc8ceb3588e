package cluster

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/exec"
	"joinview/internal/maintain"
	"joinview/internal/types"
)

// QuerySpec is an ad-hoc equijoin query — the workload a data warehouse
// runs when no materialized view covers it. QueryJoin answers it by
// recomputing the join from the base relations, which is what a
// materialized view saves.
type QuerySpec struct {
	Tables []string
	Joins  []catalog.JoinPred
	// Out is the projection; empty selects every column of every table.
	Out []catalog.OutCol
}

// QueryJoin runs the query and returns the result rows with their schema
// (qualified column names, tables in join order when Out is empty). It
// reads every table in one read scope with scan I/O charged to the node
// meters, so query cost is comparable against view-scan cost, and joins
// the rows at the coordinator with the same function as view backfill
// and the recompute reference (exec.Join). It writes nothing.
func (c *Cluster) QueryJoin(spec QuerySpec) ([]types.Tuple, *types.Schema, error) {
	var rows []types.Tuple
	var schema *types.Schema
	err := c.withFailover(func() error {
		var err error
		rows, schema, err = c.queryJoinOnce(spec)
		return err
	})
	return rows, schema, err
}

func (c *Cluster) queryJoinOnce(spec QuerySpec) ([]types.Tuple, *types.Schema, error) {
	rs := c.beginRead(spec.Tables...)
	defer rs.end()
	// A join over the survivors' rows would silently lose every match
	// that involves an unreachable slot, so fail fast (simple scans
	// degrade to partial results instead — see ScanFragmentMetered).
	if err := c.failIfDegraded(); err != nil {
		return nil, nil, err
	}
	if len(spec.Tables) == 0 {
		return nil, nil, fmt.Errorf("cluster: query needs at least one table")
	}
	rels, err := baseRels(rs.cat, spec.Tables, func(frag string) ([]types.Tuple, error) { return rs.rows(frag, true) })
	if err != nil {
		return nil, nil, err
	}
	rows, schema, residual, err := exec.Join(rels, spec.Joins)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: query: %w", err)
	}
	if rows, err = maintain.FilterResidual(rows, schema, residual); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(spec.Out))
	for i, o := range spec.Out {
		names[i] = o.Qualified()
	}
	return project(rows, schema, names)
}

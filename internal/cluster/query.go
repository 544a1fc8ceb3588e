package cluster

import (
	"fmt"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// QuerySpec is an ad-hoc distributed equijoin query — the workload a data
// warehouse runs when no materialized view covers it. QueryJoin executes
// it the way a parallel RDBMS would: shuffle relations on their join
// attributes (reusing an auxiliary relation when one is already
// partitioned right — the paper notes ARs "are similar to copies of
// relations that are used to implement application specific
// partitioning"), then co-partitioned local hash joins, fully metered.
type QuerySpec struct {
	Tables []string
	Joins  []catalog.JoinPred
	// Out is the projection; empty selects every column of every table.
	Out []catalog.OutCol
}

// QueryJoin runs the query and returns the result rows with their schema
// (qualified column names). All data movement and join work charges the
// node meters, so query cost is comparable against view-scan cost.
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
	// One read scope over the query's tables: their auxiliary relations, any
	// of which may serve as a pre-partitioned copy below, are pinned or
	// claimed with them.
	rs := c.beginRead(spec.Tables...)
	defer rs.end()
	// Distributed joins shuffle data across every node, so a partial
	// answer cannot be assembled; fail fast (simple scans degrade to
	// partial results instead — see ScanFragmentMetered).
	if err := c.failIfDegraded(); err != nil {
		return nil, nil, err
	}
	if len(spec.Tables) == 0 {
		return nil, nil, fmt.Errorf("cluster: query needs at least one table")
	}
	var temps []string
	defer func() {
		for _, name := range temps {
			// Best-effort cleanup; a drop failure leaves only garbage
			// fragments behind.
			_, _ = c.tr.Broadcast(netsim.Coordinator, node.DropFragment{Name: name})
		}
	}()
	newTemp := func(schema *types.Schema, clusterCol string) (string, error) {
		// Cluster-wide counter: concurrent queries must not collide on
		// temp fragment names.
		name := fmt.Sprintf("__q%d", c.tempSeq.Add(1))
		if err := c.broadcast(node.CreateFragment{
			Name: name, Schema: schema, ClusterCol: clusterCol, PageRows: c.cfg.PageRows,
		}); err != nil {
			return "", err
		}
		temps = append(temps, name)
		return name, nil
	}

	first, err := c.cat.Table(spec.Tables[0])
	if err != nil {
		return nil, nil, err
	}
	// The running distributed intermediate.
	curFrag := spec.Tables[0]
	curSchema := first.Schema.Prefixed(spec.Tables[0])
	curPartCol := spec.Tables[0] + "." + first.PartitionCol
	curIsTemp := false

	covered := map[string]bool{spec.Tables[0]: true}
	remaining := append([]catalog.JoinPred(nil), spec.Joins...)

	for len(covered) < len(spec.Tables) {
		j, next, rest, ok := catalog.NextJoin(remaining, covered)
		if !ok {
			return nil, nil, fmt.Errorf("cluster: query join graph disconnected (cartesian products unsupported)")
		}
		remaining = rest
		nextTable, err := c.cat.Table(next)
		if err != nil {
			return nil, nil, err
		}
		nextCol := j.ColOf(next)
		curCol := j.Other(next) + "." + j.ColOf(j.Other(next))
		if curSchema.ColIndex(curCol) < 0 {
			return nil, nil, fmt.Errorf("cluster: query intermediate lacks %s", curCol)
		}

		// Right side: in place if partitioned on the join attribute, via
		// a covering AR if one exists, otherwise shuffled.
		rightFrag := next
		rightSchema := nextTable.Schema
		rightCol := nextCol
		switch {
		case nextTable.PartitionCol == nextCol:
			// co-located already
		case func() bool {
			ar, ok := c.cat.AuxRelOn(next, nextCol, nextTable.Schema.Names())
			if ok {
				rightFrag, rightSchema = ar.Name, ar.Schema
			}
			return ok
		}():
			// full-width AR reused as the pre-partitioned copy
		default:
			tmp, err := c.shuffle(next, nextTable.Schema, nextCol, rs.epoch(next), newTemp)
			if err != nil {
				return nil, nil, err
			}
			rightFrag = tmp
		}

		// Left side: reshuffle unless already partitioned on the join key.
		if curPartCol != curCol {
			tmp, err := c.shuffle(curFrag, curSchema, curCol, rs.epoch(curFrag), newTemp)
			if err != nil {
				return nil, nil, err
			}
			if curIsTemp {
				// The consumed temp can go now.
				_, _ = c.tr.Broadcast(netsim.Coordinator, node.DropFragment{Name: curFrag})
			}
			curFrag, curIsTemp = tmp, true
			curPartCol = curCol
		}

		// Output fragment, co-partitioned on the join key. Temp fragments
		// carry qualified column names; base tables and ARs are
		// unqualified, so the physical left column differs when the
		// intermediate still is the first base table.
		leftColPhys := curCol
		if !curIsTemp {
			leftColPhys = j.ColOf(j.Other(next))
		}
		outSchema := curSchema.Concat(rightSchema.Prefixed(next))
		outFrag, err := newTemp(outSchema, curCol)
		if err != nil {
			return nil, nil, err
		}
		if _, err := c.tr.Broadcast(netsim.Coordinator, node.LocalJoin{
			Left: curFrag, Right: rightFrag,
			LeftCol: leftColPhys, RightCol: rightCol,
			Out:       outFrag,
			LeftEpoch: rs.epoch(curFrag), RightEpoch: rs.epoch(rightFrag),
		}); err != nil {
			return nil, nil, err
		}
		curFrag, curSchema, curIsTemp = outFrag, outSchema, true
		covered[next] = true
	}

	// Gather the final fragments (metered scan), apply residual cyclic
	// predicates, project.
	rows, err := rs.rows(curFrag, true)
	if err != nil {
		return nil, nil, err
	}
	rows, err = maintain.FilterResidual(rows, curSchema, remaining)
	if err != nil {
		return nil, nil, err
	}
	if len(spec.Out) == 0 {
		return rows, curSchema, nil
	}
	names := make([]string, len(spec.Out))
	for i, o := range spec.Out {
		names[i] = o.Qualified()
	}
	proj := expr.NewProjection(names)
	outSchema, err := proj.OutputSchema(curSchema)
	if err != nil {
		return nil, nil, err
	}
	out := make([]types.Tuple, 0, len(rows))
	for _, t := range rows {
		// Apply allocates the projected tuple; no defensive clone needed.
		p, err := proj.Apply(curSchema, t)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, p)
	}
	return out, outSchema, nil
}

// shuffle redistributes a fragment by the named column into a fresh temp
// fragment clustered on that column: each node's share is scanned
// (metered, at the reader's pinned epoch when versioned), bucketed and
// shipped (metered inserts + messages).
func (c *Cluster) shuffle(frag string, schema *types.Schema, col string, epoch uint64, newTemp func(*types.Schema, string) (string, error)) (string, error) {
	if schema.ColIndex(col) < 0 {
		return "", fmt.Errorf("cluster: shuffle column %q not in schema %v", col, schema.Names())
	}
	tmp, err := newTemp(schema, col)
	if err != nil {
		return "", err
	}
	for src := 0; src < c.NumNodes(); src++ {
		if c.isDown(src) && c.replServesComplete() {
			// Failed-over node: its slots live elsewhere, it has no share.
			continue
		}
		resp, err := c.call(src, node.Scan{Frag: frag, Epoch: epoch})
		if err != nil {
			return "", err
		}
		buckets, err := c.part.Spread(schema, col, resp.(node.RowsResult).Tuples)
		if err != nil {
			return "", err
		}
		for dst, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			if _, err := c.tr.Call(src, dst, node.Insert{Frag: tmp, Tuples: bucket}); err != nil {
				return "", err
			}
		}
	}
	return tmp, nil
}

// sortQualified is a helper for deterministic test output.
func sortQualified(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}

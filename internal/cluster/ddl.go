package cluster

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/exec"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// CreateTable registers a base table and allocates its fragments. If the
// table does not name a cluster column, the local layout clusters on the
// partitioning attribute, as Teradata's primary index does; an explicitly
// different ClusterCol models the paper's "naive method with clustered
// index on the join attribute" variant, which Teradata itself could not
// run.
func (c *Cluster) CreateTable(t *catalog.Table) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if t.ClusterCol == "" {
		t.ClusterCol = t.PartitionCol
	}
	if err := c.cat.AddTable(t); err != nil {
		return err
	}
	if err := c.broadcast(node.CreateFragment{
		Name:       t.Name,
		Schema:     t.Schema,
		ClusterCol: t.ClusterCol,
		PageRows:   c.cfg.PageRows,
	}); err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		if err := c.broadcast(node.CreateIndex{Frag: t.Name, Name: ix.Name, Col: ix.Col}); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex adds a non-clustered secondary index to a base table.
func (c *Cluster) CreateIndex(table, name, col string) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if err := c.cat.AddIndex(table, catalog.Index{Name: name, Col: col}); err != nil {
		return err
	}
	return c.broadcast(node.CreateIndex{Frag: table, Name: name, Col: col})
}

// CreateAuxRel registers an auxiliary relation, allocates its fragments
// (clustered on the partition/join attribute, as §2.1.2 requires) and
// backfills it from the base table. Backfill is unmetered DDL.
func (c *Cluster) CreateAuxRel(spec *catalog.AuxRel) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	return c.createAuxRelLocked(spec)
}

func (c *Cluster) createAuxRelLocked(spec *catalog.AuxRel) error {
	if err := c.cat.AddAuxRel(spec); err != nil {
		return err
	}
	if err := c.broadcast(node.CreateFragment{
		Name:       spec.Name,
		Schema:     spec.Schema,
		ClusterCol: spec.PartitionCol,
		PageRows:   c.cfg.PageRows,
	}); err != nil {
		return err
	}
	base, err := c.cat.Table(spec.Table)
	if err != nil {
		return err
	}
	rows, err := c.gather(spec.Table)
	if err != nil {
		return err
	}
	projected, err := projectForAuxRel(base, spec, rows)
	if err != nil {
		return err
	}
	return c.spreadInsert(spec.Name, spec.Schema, spec.PartitionCol, projected, true)
}

// projectForAuxRel applies the AR's selection and projection to base rows.
func projectForAuxRel(base *catalog.Table, spec *catalog.AuxRel, rows []types.Tuple) ([]types.Tuple, error) {
	proj := expr.NewProjection(spec.Cols)
	out := make([]types.Tuple, 0, len(rows))
	for _, r := range rows {
		ok, err := expr.Matches(spec.Where, base.Schema, r)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		p, err := proj.Apply(base.Schema, r)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Clone())
	}
	return out, nil
}

// spreadInsert hash-routes tuples by the named column and inserts them into
// the fragment at each destination.
func (c *Cluster) spreadInsert(frag string, schema *types.Schema, col string, tuples []types.Tuple, unmetered bool) error {
	buckets, err := c.part.Spread(schema, col, tuples)
	if err != nil {
		return err
	}
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if _, err := c.call(n, node.Insert{Frag: frag, Tuples: bucket, Unmetered: unmetered}); err != nil {
			return err
		}
	}
	return nil
}

// CreateGlobalIndex registers a global index, allocates its fragments and
// backfills it from the base table. The distributed-clustered property is
// derived from the base table's local layout.
func (c *Cluster) CreateGlobalIndex(spec *catalog.GlobalIndex) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	return c.createGlobalIndexLocked(spec)
}

func (c *Cluster) createGlobalIndexLocked(spec *catalog.GlobalIndex) error {
	if err := c.cat.AddGlobalIndex(spec); err != nil {
		return err
	}
	if err := c.broadcast(node.CreateGlobalIndex{Name: spec.Name, DistClustered: spec.DistClustered}); err != nil {
		return err
	}
	t, err := c.cat.Table(spec.Table)
	if err != nil {
		return err
	}
	ci := t.Schema.MustColIndex(spec.Col)
	// Per source node: read (row id, tuple) pairs, then batch entries to
	// each global-index home node.
	for src := 0; src < c.NumNodes(); src++ {
		resp, err := c.call(src, node.ScanWithRows{Frag: spec.Table})
		if err != nil {
			return err
		}
		rr := resp.(node.RowsResult)
		batchVals := make([][]types.Value, c.NumNodes())
		batchGs := make([][]storage.GlobalRowID, c.NumNodes())
		for i, tup := range rr.Tuples {
			v := tup[ci]
			home := c.part.NodeFor(v)
			batchVals[home] = append(batchVals[home], v)
			batchGs[home] = append(batchGs[home], storage.GlobalRowID{Node: int32(src), Row: rr.Rows[i]})
		}
		for home := range batchVals {
			if len(batchVals[home]) == 0 {
				continue
			}
			if _, err := c.call(home, node.GIInsertBatch{GI: spec.Name, Vals: batchVals[home], Gs: batchGs[home]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnsureStructures creates the auxiliary relations and/or global indexes
// the view's strategy requires, skipping any that already exist. Auto
// creates both kinds so the cost-based chooser can pick per update.
func (c *Cluster) EnsureStructures(v *catalog.View) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	return c.ensureStructuresLocked(v)
}

func (c *Cluster) ensureStructuresLocked(v *catalog.View) error {
	wantAR := v.Strategy == catalog.StrategyAuxRel || v.Strategy == catalog.StrategyAuto
	wantGI := v.Strategy == catalog.StrategyGlobalIndex || v.Strategy == catalog.StrategyAuto
	for _, s := range v.Overrides {
		wantAR = wantAR || s == catalog.StrategyAuxRel || s == catalog.StrategyAuto
		wantGI = wantGI || s == catalog.StrategyGlobalIndex || s == catalog.StrategyAuto
	}
	if wantAR {
		specs, err := plan.AuxRelSpecs(c.cat, v)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := specs[i]
			need := spec.Cols
			if have, ok := c.cat.AuxRelOn(spec.Table, spec.PartitionCol, need); ok {
				// Deduplicated: the existing AR covers this view's needs.
				// Record the reference so it outlives the other views.
				c.cat.RefAuxRel(have.Name, v.Name)
				continue
			}
			// Another view may hold the derived name with a narrower
			// column set (§2.1.2's redundancy: AR_A1 vs AR_A2); pick a
			// fresh name rather than failing.
			base := spec.Name
			for n := 2; ; n++ {
				if _, err := c.cat.AuxRel(spec.Name); err != nil {
					break
				}
				spec.Name = fmt.Sprintf("%s_%d", base, n)
			}
			spec.AutoCreated = true
			if err := c.createAuxRelLocked(&spec); err != nil {
				return fmt.Errorf("cluster: ensuring AR for view %q: %w", v.Name, err)
			}
			c.cat.RefAuxRel(spec.Name, v.Name)
		}
	}
	if wantGI {
		specs, err := plan.GlobalIndexSpecs(c.cat, v)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := specs[i]
			if _, ok := c.cat.GlobalIndexOn(spec.Table, spec.Col); ok {
				continue
			}
			if err := c.createGlobalIndexLocked(&spec); err != nil {
				return fmt.Errorf("cluster: ensuring GI for view %q: %w", v.Name, err)
			}
		}
	}
	return nil
}

// CreateView validates and registers a join view, creates any auxiliary
// structures its strategy needs, allocates the view fragments (clustered
// on the view's partitioning attribute) and materializes the initial
// contents with a coordinator-side join. DDL work is unmetered.
func (c *Cluster) CreateView(v *catalog.View) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if err := c.cat.AddView(v); err != nil {
		return err
	}
	if err := c.ensureStructuresLocked(v); err != nil {
		return err
	}
	if err := c.broadcast(node.CreateFragment{
		Name:       v.Name,
		Schema:     v.Schema,
		ClusterCol: v.PartitionQualified(),
		PageRows:   c.cfg.PageRows,
	}); err != nil {
		return err
	}
	content, err := c.computeJoin(v, c.gather)
	if err != nil {
		return err
	}
	return c.spreadInsert(v.Name, v.Schema, v.PartitionQualified(), content, true)
}

// DropView removes a view and its fragments. Auxiliary relations that were
// auto-created for view maintenance are reference-counted: when the dropped
// view was the last one using an auto-created AR, the AR and its fragments
// go with it. User-created ARs and global indexes stay (drop them
// explicitly with DropAuxRel/DropGlobalIndex).
func (c *Cluster) DropView(name string) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if err := c.cat.DropView(name); err != nil {
		return err
	}
	if err := c.broadcast(node.DropFragment{Name: name}); err != nil {
		return err
	}
	for _, ar := range c.cat.UnrefViewAuxRels(name) {
		if err := c.cat.DropAuxRel(ar); err != nil {
			return err
		}
		if err := c.broadcast(node.DropFragment{Name: ar}); err != nil {
			return err
		}
	}
	return nil
}

// DropAuxRel removes an auxiliary relation and its fragments. It refuses
// if a view's maintenance still depends on it.
func (c *Cluster) DropAuxRel(name string) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	ar, err := c.cat.AuxRel(name)
	if err != nil {
		return err
	}
	if v := c.viewNeedingAuxRel(ar); v != "" {
		return fmt.Errorf("cluster: auxiliary relation %q is needed by view %q", name, v)
	}
	if err := c.cat.DropAuxRel(name); err != nil {
		return err
	}
	return c.broadcast(node.DropFragment{Name: name})
}

// viewNeedingAuxRel reports a view whose auxrel-strategy maintenance would
// lose its only covering AR, or "" if none.
func (c *Cluster) viewNeedingAuxRel(ar *catalog.AuxRel) string {
	for _, vn := range c.cat.Views() {
		v, _ := c.cat.View(vn)
		if !v.HasTable(ar.Table) {
			continue
		}
		usesAR := v.Strategy == catalog.StrategyAuxRel || v.Strategy == catalog.StrategyAuto
		for _, s := range v.Overrides {
			usesAR = usesAR || s == catalog.StrategyAuxRel || s == catalog.StrategyAuto
		}
		if !usesAR {
			continue
		}
		for _, jc := range v.JoinCols(ar.Table) {
			if jc != ar.PartitionCol {
				continue
			}
			// Is there another covering AR?
			covered := false
			for _, other := range c.cat.AuxRelsFor(ar.Table) {
				if other.Name != ar.Name && other.PartitionCol == jc {
					covered = true
					break
				}
			}
			if !covered {
				return vn
			}
		}
	}
	return ""
}

// DropGlobalIndex removes a global index and its fragments.
func (c *Cluster) DropGlobalIndex(name string) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if err := c.cat.DropGlobalIndex(name); err != nil {
		return err
	}
	return c.broadcast(node.DropGlobalIndexFrag{Name: name})
}

// DropTable removes a base table, cascading over its auxiliary relations
// and global indexes; it refuses while any view references the table.
func (c *Cluster) DropTable(name string) error {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	defer h.Release()
	if err := c.failIfMigrating(); err != nil {
		return err
	}
	if _, err := c.cat.Table(name); err != nil {
		return err
	}
	if vs := c.cat.ViewsOn(name); len(vs) > 0 {
		return fmt.Errorf("cluster: table %q is referenced by view %q (drop the view first)", name, vs[0].Name)
	}
	for _, ar := range c.cat.AuxRelsFor(name) {
		if err := c.cat.DropAuxRel(ar.Name); err != nil {
			return err
		}
		if err := c.broadcast(node.DropFragment{Name: ar.Name}); err != nil {
			return err
		}
	}
	for _, gi := range c.cat.GlobalIndexesFor(name) {
		if err := c.cat.DropGlobalIndex(gi.Name); err != nil {
			return err
		}
		if err := c.broadcast(node.DropGlobalIndexFrag{Name: gi.Name}); err != nil {
			return err
		}
	}
	if err := c.cat.DropTable(name); err != nil {
		return err
	}
	return c.broadcast(node.DropFragment{Name: name})
}

// computeJoin evaluates the view's full join at the coordinator with
// in-memory hash joins over the base rows that rows supplies, returning
// view-schema tuples: c.gather for initial materialization and rebuilds
// (under the global exclusive lock), a read scope for the recompute
// reference in verification.
func (c *Cluster) computeJoin(v *catalog.View, rows func(frag string) ([]types.Tuple, error)) ([]types.Tuple, error) {
	first, err := c.cat.Table(v.Tables[0])
	if err != nil {
		return nil, err
	}
	cur, err := rows(v.Tables[0])
	if err != nil {
		return nil, err
	}
	curSchema := first.Schema.Prefixed(v.Tables[0])
	covered := map[string]bool{v.Tables[0]: true}
	remaining := append([]catalog.JoinPred(nil), v.Joins...)

	for len(covered) < len(v.Tables) {
		j, next, rest, ok := catalog.NextJoin(remaining, covered)
		if !ok {
			return nil, fmt.Errorf("cluster: view %q join graph disconnected", v.Name)
		}
		remaining = rest
		nextTable, err := c.cat.Table(next)
		if err != nil {
			return nil, err
		}
		nextRows, err := rows(next)
		if err != nil {
			return nil, err
		}
		leftIdx := curSchema.ColIndex(j.Other(next) + "." + j.ColOf(j.Other(next)))
		if leftIdx < 0 {
			return nil, fmt.Errorf("cluster: join column missing in intermediate for view %q", v.Name)
		}
		rightIdx := nextTable.Schema.MustColIndex(j.ColOf(next))
		cur, err = exec.HashJoin(cur, leftIdx, nextRows, rightIdx)
		if err != nil {
			return nil, err
		}
		curSchema = curSchema.Concat(nextTable.Schema.Prefixed(next))
		covered[next] = true
	}

	// Residual join predicates: the extra edges of a cyclic join graph
	// (the §2.2 complete-join example) filter the assembled tuples.
	cur, err = maintain.FilterResidual(cur, curSchema, remaining)
	if err != nil {
		return nil, err
	}

	proj := expr.NewProjection(v.MaintenanceProjection())
	out := make([]types.Tuple, 0, len(cur))
	for _, t := range cur {
		p, err := proj.Apply(curSchema, t)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Clone())
	}
	if v.IsAggregate() {
		return maintain.FoldAggRows(v, out)
	}
	return out, nil
}

// RecomputeView evaluates the view's definition from the current base
// relations (ignoring the materialized fragments), all read in one scope.
func (c *Cluster) RecomputeView(name string) ([]types.Tuple, error) {
	v, err := c.cat.View(name)
	if err != nil {
		return nil, err
	}
	rs := c.beginRead(v.Tables...)
	defer rs.end()
	return c.computeJoin(v, rs.unmetered)
}

// CheckViewConsistency verifies that the materialized content of the view
// equals a from-scratch recomputation of its definition (bag equality).
// This is the paper's core correctness obligation for every maintenance
// method. The view and its base tables are read in one scope, so the check
// holds beside concurrent writers.
func (c *Cluster) CheckViewConsistency(name string) error {
	v, err := c.cat.View(name)
	if err != nil {
		return err
	}
	rs := c.beginRead(append([]string{name}, v.Tables...)...)
	defer rs.end()
	stored, err := rs.unmetered(name)
	if err != nil {
		return err
	}
	want, err := c.computeJoin(v, rs.unmetered)
	if err != nil {
		return err
	}
	if len(stored) != len(want) {
		return fmt.Errorf("cluster: view %q has %d rows, recompute gives %d", name, len(stored), len(want))
	}
	counts := map[uint64]int{}
	for _, t := range want {
		counts[t.Hash()]++
	}
	for _, t := range stored {
		h := t.Hash()
		counts[h]--
		if counts[h] < 0 {
			return fmt.Errorf("cluster: view %q stores tuple %v not in recompute", name, t)
		}
	}
	return nil
}

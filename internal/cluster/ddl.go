package cluster

import (
	"errors"
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/exec"
	"joinview/internal/expr"
	"joinview/internal/lockmgr"
	"joinview/internal/maintain"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// ddl runs one creating DDL operation under the global exclusive lock,
// with the maintenance queue drained and no migration in flight. do drafts
// the next catalog on b and does the node work through sc, whose catalog is
// that draft. The draft is published only when do succeeds; otherwise the
// catalog stays as it was and the node work sc saw applied is undone —
// fragments and global indexes created on the nodes that acked are dropped
// again (node.InverseOf), so a retry starts clean.
func (c *Cluster) ddl(do func(b *catalog.Builder, sc *stmtScope) error) error {
	h, err := c.lockQuiesced()
	if err != nil {
		return err
	}
	defer h.Release()
	b := c.Catalog().Builder()
	sc := c.newScope(b.Catalog)
	if err := c.settle(sc, do(b, sc)); err != nil {
		return err
	}
	c.publish(b.Build())
	return nil
}

// dropDDL runs one dropping DDL operation under the same lock as ddl. draft
// removes the objects from the draft catalog and names the requests that
// drop their fragments. The draft is published before any fragment goes,
// so no statement can route to a fragment being dropped; then every node
// gets the drops, each delivered like a compensation: a node that is down
// gets it at Recover, and a fragment already gone counts as dropped. A drop
// therefore never leaves the catalog naming a fragment some node lacks.
func (c *Cluster) dropDDL(draft func(b *catalog.Builder) ([]any, error)) error {
	h, err := c.lockQuiesced()
	if err != nil {
		return err
	}
	defer h.Release()
	b := c.Catalog().Builder()
	drops, err := draft(b)
	if err != nil {
		return err
	}
	cat := b.Build()
	c.publish(cat)
	sc := c.newScope(cat)
	var errs []error
	for _, req := range drops {
		for n := 0; n < c.NumNodes(); n++ {
			if err := c.undoCall(sc, n, req, nil); err != nil && !errors.Is(err, node.ErrNoFragment) {
				errs = append(errs, fmt.Errorf("cluster: %T at node %d: %w", req, n, err))
			}
		}
	}
	return errors.Join(errs...)
}

// lockQuiesced takes the global lock exclusively, with the maintenance
// queue drained and no migration in flight: what DDL and a re-replication
// round start from.
func (c *Cluster) lockQuiesced() (*lockmgr.Held, error) {
	h, err := c.lockGlobalDrained()
	if err != nil {
		return nil, err
	}
	if err := c.failIfMigrating(); err != nil {
		h.Release()
		return nil, err
	}
	return h, nil
}

// everywhere broadcasts one DDL request through the scope.
func (sc *stmtScope) everywhere(req any) error {
	_, err := sc.Broadcast(netsim.Coordinator, req)
	return err
}

// CreateTable registers a base table and allocates its fragments. If the
// table does not name a cluster column, the local layout clusters on the
// partitioning attribute, as Teradata's primary index does; an explicitly
// different ClusterCol models the paper's "naive method with clustered
// index on the join attribute" variant, which Teradata itself could not
// run.
func (c *Cluster) CreateTable(t *catalog.Table) error {
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		if t.ClusterCol == "" {
			t.ClusterCol = t.PartitionCol
		}
		if err := b.AddTable(t); err != nil {
			return err
		}
		if err := sc.everywhere(node.CreateFragment{
			Name:       t.Name,
			Schema:     t.Schema,
			ClusterCol: t.ClusterCol,
			PageRows:   c.cfg.PageRows,
		}); err != nil {
			return err
		}
		for _, ix := range t.Indexes {
			if err := sc.everywhere(node.CreateIndex{Frag: t.Name, Name: ix.Name, Col: ix.Col}); err != nil {
				return err
			}
		}
		return nil
	})
}

// CreateIndex adds a non-clustered secondary index to a base table.
func (c *Cluster) CreateIndex(table, name, col string) error {
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		if err := b.AddIndex(table, catalog.Index{Name: name, Col: col}); err != nil {
			return err
		}
		return sc.everywhere(node.CreateIndex{Frag: table, Name: name, Col: col})
	})
}

// CreateAuxRel registers an auxiliary relation, allocates its fragments
// (clustered on the partition/join attribute, as §2.1.2 requires) and
// backfills it from the base table. Backfill is unmetered DDL.
func (c *Cluster) CreateAuxRel(spec *catalog.AuxRel) error {
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		return c.createAuxRel(b, sc, spec)
	})
}

func (c *Cluster) createAuxRel(b *catalog.Builder, sc *stmtScope, spec *catalog.AuxRel) error {
	if err := b.AddAuxRel(spec); err != nil {
		return err
	}
	if err := sc.everywhere(node.CreateFragment{
		Name:       spec.Name,
		Schema:     spec.Schema,
		ClusterCol: spec.PartitionCol,
		PageRows:   c.cfg.PageRows,
	}); err != nil {
		return err
	}
	base, err := b.Table(spec.Table)
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
	return sc.spreadInsert(spec.Name, spec.Schema, spec.PartitionCol, projected)
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

// spreadInsert hash-routes tuples by the named column and inserts them,
// unmetered, into the fragment at each destination.
func (sc *stmtScope) spreadInsert(frag string, schema *types.Schema, col string, tuples []types.Tuple) error {
	buckets, err := sc.env.Cat.Partitioner().Spread(schema, col, tuples)
	if err != nil {
		return err
	}
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if _, err := sc.Call(netsim.Coordinator, n, node.Insert{Frag: frag, Tuples: bucket, Unmetered: true}); err != nil {
			return err
		}
	}
	return nil
}

// CreateGlobalIndex registers a global index, allocates its fragments and
// backfills it from the base table. The distributed-clustered property is
// derived from the base table's local layout.
func (c *Cluster) CreateGlobalIndex(spec *catalog.GlobalIndex) error {
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		return c.createGlobalIndex(b, sc, spec)
	})
}

func (c *Cluster) createGlobalIndex(b *catalog.Builder, sc *stmtScope, spec *catalog.GlobalIndex) error {
	if err := b.AddGlobalIndex(spec); err != nil {
		return err
	}
	if err := sc.everywhere(node.CreateGlobalIndex{Name: spec.Name, DistClustered: spec.DistClustered}); err != nil {
		return err
	}
	t, err := b.Table(spec.Table)
	if err != nil {
		return err
	}
	ci := t.Schema.MustColIndex(spec.Col)
	part := b.Partitioner()
	// Per source node: read (row id, tuple) pairs, then batch entries to
	// each global-index home node.
	for src := 0; src < c.NumNodes(); src++ {
		resp, err := sc.Call(netsim.Coordinator, src, node.ScanWithRows{Frag: spec.Table})
		if err != nil {
			return err
		}
		rr := resp.(node.RowsResult)
		batchVals := make([][]types.Value, c.NumNodes())
		batchGs := make([][]storage.GlobalRowID, c.NumNodes())
		for i, tup := range rr.Tuples {
			v := tup[ci]
			home := part.NodeFor(v)
			batchVals[home] = append(batchVals[home], v)
			batchGs[home] = append(batchGs[home], storage.GlobalRowID{Node: int32(src), Row: rr.Rows[i]})
		}
		for home := range batchVals {
			if len(batchVals[home]) == 0 {
				continue
			}
			if _, err := sc.Call(netsim.Coordinator, home, node.GIInsertBatch{GI: spec.Name, Vals: batchVals[home], Gs: batchGs[home]}); err != nil {
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
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		return c.ensureStructures(b, sc, v)
	})
}

func (c *Cluster) ensureStructures(b *catalog.Builder, sc *stmtScope, v *catalog.View) error {
	wantAR := v.Strategy == catalog.StrategyAuxRel || v.Strategy == catalog.StrategyAuto
	wantGI := v.Strategy == catalog.StrategyGlobalIndex || v.Strategy == catalog.StrategyAuto
	for _, s := range v.Overrides {
		wantAR = wantAR || s == catalog.StrategyAuxRel || s == catalog.StrategyAuto
		wantGI = wantGI || s == catalog.StrategyGlobalIndex || s == catalog.StrategyAuto
	}
	if wantAR {
		specs, err := plan.AuxRelSpecs(b.Catalog, v)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := specs[i]
			need := spec.Cols
			if have, ok := b.AuxRelOn(spec.Table, spec.PartitionCol, need); ok {
				// Deduplicated: the existing AR covers this view's needs.
				// Record the reference so it outlives the other views.
				b.RefAuxRel(have.Name, v.Name)
				continue
			}
			// Another view may hold the derived name with a narrower
			// column set (§2.1.2's redundancy: AR_A1 vs AR_A2); pick a
			// fresh name rather than failing.
			base := spec.Name
			for n := 2; ; n++ {
				if _, err := b.AuxRel(spec.Name); err != nil {
					break
				}
				spec.Name = fmt.Sprintf("%s_%d", base, n)
			}
			spec.AutoCreated = true
			if err := c.createAuxRel(b, sc, &spec); err != nil {
				return fmt.Errorf("cluster: ensuring AR for view %q: %w", v.Name, err)
			}
			b.RefAuxRel(spec.Name, v.Name)
		}
	}
	if wantGI {
		specs, err := plan.GlobalIndexSpecs(b.Catalog, v)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := specs[i]
			if _, ok := b.GlobalIndexOn(spec.Table, spec.Col); ok {
				continue
			}
			if err := c.createGlobalIndex(b, sc, &spec); err != nil {
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
	return c.ddl(func(b *catalog.Builder, sc *stmtScope) error {
		if err := b.AddView(v); err != nil {
			return err
		}
		if err := c.ensureStructures(b, sc, v); err != nil {
			return err
		}
		if err := sc.everywhere(node.CreateFragment{
			Name:       v.Name,
			Schema:     v.Schema,
			ClusterCol: v.PartitionQualified(),
			PageRows:   c.cfg.PageRows,
		}); err != nil {
			return err
		}
		content, err := computeJoin(b.Catalog, v, c.gather)
		if err != nil {
			return err
		}
		return sc.spreadInsert(v.Name, v.Schema, v.PartitionQualified(), content)
	})
}

// DropView removes a view and its fragments. Auxiliary relations that were
// auto-created for view maintenance are reference-counted: when the dropped
// view was the last one using an auto-created AR, the AR and its fragments
// go with it. User-created ARs and global indexes stay (drop them
// explicitly with DropAuxRel/DropGlobalIndex).
func (c *Cluster) DropView(name string) error {
	return c.dropDDL(func(b *catalog.Builder) ([]any, error) {
		if err := b.DropView(name); err != nil {
			return nil, err
		}
		drops := []any{node.DropFragment{Name: name}}
		for _, ar := range b.UnrefViewAuxRels(name) {
			if err := b.DropAuxRel(ar); err != nil {
				return nil, err
			}
			drops = append(drops, node.DropFragment{Name: ar})
		}
		return drops, nil
	})
}

// DropAuxRel removes an auxiliary relation and its fragments. It refuses
// if a view's maintenance still depends on it.
func (c *Cluster) DropAuxRel(name string) error {
	return c.dropDDL(func(b *catalog.Builder) ([]any, error) {
		ar, err := b.AuxRel(name)
		if err != nil {
			return nil, err
		}
		if v := viewNeedingAuxRel(b.Catalog, ar); v != "" {
			return nil, fmt.Errorf("cluster: auxiliary relation %q is needed by view %q", name, v)
		}
		if err := b.DropAuxRel(name); err != nil {
			return nil, err
		}
		return []any{node.DropFragment{Name: name}}, nil
	})
}

// viewNeedingAuxRel reports a view whose auxrel-strategy maintenance would
// lose its only covering AR, or "" if none.
func viewNeedingAuxRel(cat *catalog.Catalog, ar *catalog.AuxRel) string {
	for _, vn := range cat.Views() {
		v, _ := cat.View(vn)
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
			for _, other := range cat.AuxRelsFor(ar.Table) {
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
	return c.dropDDL(func(b *catalog.Builder) ([]any, error) {
		if err := b.DropGlobalIndex(name); err != nil {
			return nil, err
		}
		return []any{node.DropGlobalIndexFrag{Name: name}}, nil
	})
}

// DropTable removes a base table, cascading over its auxiliary relations
// and global indexes; it refuses while any view references the table.
func (c *Cluster) DropTable(name string) error {
	return c.dropDDL(func(b *catalog.Builder) ([]any, error) {
		if _, err := b.Table(name); err != nil {
			return nil, err
		}
		if vs := b.ViewsOn(name); len(vs) > 0 {
			return nil, fmt.Errorf("cluster: table %q is referenced by view %q (drop the view first)", name, vs[0].Name)
		}
		var drops []any
		for _, ar := range b.AuxRelsFor(name) {
			if err := b.DropAuxRel(ar.Name); err != nil {
				return nil, err
			}
			drops = append(drops, node.DropFragment{Name: ar.Name})
		}
		for _, gi := range b.GlobalIndexesFor(name) {
			if err := b.DropGlobalIndex(gi.Name); err != nil {
				return nil, err
			}
			drops = append(drops, node.DropGlobalIndexFrag{Name: gi.Name})
		}
		if err := b.DropTable(name); err != nil {
			return nil, err
		}
		return append(drops, node.DropFragment{Name: name}), nil
	})
}

// computeJoin evaluates the view's full join, as cat defines its tables,
// at the coordinator (exec.Join) over the base rows that rows supplies,
// returning view-schema tuples: c.gather for initial materialization and
// rebuilds (under the global exclusive lock), a read scope for the
// recompute reference in verification.
func computeJoin(cat *catalog.Catalog, v *catalog.View, rows func(frag string) ([]types.Tuple, error)) ([]types.Tuple, error) {
	rels, err := baseRels(cat, v.Tables, rows)
	if err != nil {
		return nil, err
	}
	joined, schema, residual, err := exec.Join(rels, v.Joins)
	if err != nil {
		return nil, fmt.Errorf("cluster: view %q: %w", v.Name, err)
	}
	// Residual join predicates: the extra edges of a cyclic join graph
	// (the §2.2 complete-join example) filter the assembled tuples.
	if joined, err = maintain.FilterResidual(joined, schema, residual); err != nil {
		return nil, err
	}
	out, _, err := project(joined, schema, v.MaintenanceProjection())
	if err != nil {
		return nil, err
	}
	if v.IsAggregate() {
		return maintain.FoldAggRows(v, out)
	}
	return out, nil
}

// baseRels reads the named base tables through rows as exec.Join inputs,
// each bound to its table name.
func baseRels(cat *catalog.Catalog, tables []string, rows func(frag string) ([]types.Tuple, error)) ([]exec.Rel, error) {
	rels := make([]exec.Rel, len(tables))
	for i, name := range tables {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		r, err := rows(name)
		if err != nil {
			return nil, err
		}
		rels[i] = exec.Rel{Binding: name, Schema: t.Schema.Prefixed(name), Rows: r}
	}
	return rels, nil
}

// project narrows joined rows to the named columns of schema.
func project(rows []types.Tuple, schema *types.Schema, names []string) ([]types.Tuple, *types.Schema, error) {
	proj := expr.NewProjection(names)
	outSchema, err := proj.OutputSchema(schema)
	if err != nil {
		return nil, nil, err
	}
	out := make([]types.Tuple, len(rows))
	for i, t := range rows {
		// Apply allocates the projected tuple; no defensive clone needed.
		if out[i], err = proj.Apply(schema, t); err != nil {
			return nil, nil, err
		}
	}
	return out, outSchema, nil
}

// RecomputeView evaluates the view's definition from the current base
// relations (ignoring the materialized fragments), all read in one scope.
func (c *Cluster) RecomputeView(name string) ([]types.Tuple, error) {
	rs, err := c.beginReadOn(func(cat *catalog.Catalog) ([]string, error) {
		v, err := cat.View(name)
		if err != nil {
			return nil, err
		}
		return v.Tables, nil
	})
	if err != nil {
		return nil, err
	}
	defer rs.end()
	v, _ := rs.cat.View(name)
	return computeJoin(rs.cat, v, rs.unmetered)
}

// CheckViewConsistency verifies that the materialized content of the view
// equals a from-scratch recomputation of its definition (bag equality).
// This is the paper's core correctness obligation for every maintenance
// method. The view and its base tables are read in one scope, so the check
// holds beside concurrent writers.
func (c *Cluster) CheckViewConsistency(name string) error {
	rs, err := c.beginReadOn(func(cat *catalog.Catalog) ([]string, error) {
		v, err := cat.View(name)
		if err != nil {
			return nil, err
		}
		return append([]string{name}, v.Tables...), nil
	})
	if err != nil {
		return err
	}
	defer rs.end()
	v, _ := rs.cat.View(name)
	stored, err := rs.unmetered(name)
	if err != nil {
		return err
	}
	want, err := computeJoin(rs.cat, v, rs.unmetered)
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

package cluster

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// This file is the compile-once, execute-many write path. Every DML
// statement resolves a compiled maintenance plan (internal/mplan) from the
// cluster's plan cache and runs it through execPlan, which walks the
// plan's stages — base mutation, auxiliary relations, global indexes,
// view propagation — under the cross-cutting machinery that already wraps
// every statement: the scatter-gather dispatcher, the 2PC/WAL hooks in
// runStmt, the lock claims taken by the callers, retry, and the storage
// meters. The per-strategy step sequencing that used to be hand-rolled
// per entry point lives only here.

// planFor returns the compiled maintenance plan for (table, op) from the
// plan cache. Callers hold at least the shared global lock, so the catalog
// cannot move underneath the lookup.
func (c *Cluster) planFor(table string, op maintain.Op) (*mplan.Plan, error) {
	mp, hit, err := c.mcache.Get(c.cat, c.st, table, op)
	if err != nil {
		c.pstats.RecordLookup(false)
		return nil, err
	}
	c.pstats.RecordLookup(hit)
	return mp, nil
}

// execPlan executes one compiled maintenance plan for a delta of tuples
// through the statement's scope. For an insert plan, locs must be nil (the
// base stage produces them); for a delete plan, locs are the victims'
// storage locations from the caller's scan. The stages only do forward
// work: what they applied is in the scope's undo log, so a failing stage
// leaves runStmt to undo the applied prefix.
//
// When the plan marks shared potential (two or more dependent views whose
// delta-join chains start with a common structural prefix), a shared
// pre-pass runs once before the first view stage: it executes each
// distinct chain prefix of the views' compiled plans exactly once, memoized
// by structural key. The view stages then consume the memoized
// intermediates and only perform their per-view tail (residual filter,
// projection, apply). Plans without shared potential take the per-view path
// unchanged.
func (c *Cluster) execPlan(sc *stmtScope, mp *mplan.Plan, delta []types.Tuple, locs []located) error {
	// Per-stage page/message attribution needs exclusive ownership of the
	// global meters, which a statement has only where statements do not
	// overlap. Where they do, only stage executions are counted.
	attribute := !c.net.Concurrent()
	// metered runs one stage inside its own metrics window.
	metered := func(name string, stage func() error) error {
		if !attribute {
			c.pstats.RecordStage(name, 0, 0)
			return stage()
		}
		before := c.Metrics()
		err := stage()
		d := c.Metrics().Sub(before)
		c.pstats.RecordStage(name, d.Total().IOs(), d.Net.Messages)
		return err
	}
	var sx *sharedExec
	for i := range mp.Stages {
		s := &mp.Stages[i]
		if s.Kind == mplan.StageView && mp.SharedPotential && sx == nil {
			// The pre-pass gets its own metrics window so its probes are
			// attributed to "sharedjoin", not folded into the first view
			// stage — keeping per-stage attribution exact.
			err := metered(sharedStageName, func() (err error) {
				sx, err = c.execSharedJoins(sc, mp, delta)
				return err
			})
			if err != nil {
				return err
			}
		}
		err := metered(s.Kind.String(), func() (err error) {
			switch s.Kind {
			case mplan.StageBase:
				if mp.Op == maintain.OpDelete {
					return c.stageBaseDelete(sc, mp.Table, locs)
				}
				locs, err = c.stageBaseInsert(sc, mp.Table, delta)
				return err
			case mplan.StageAuxRel:
				return c.stageAuxRel(sc, mp.Table, s.AR, delta, mp.Op)
			case mplan.StageGlobalIndex:
				return c.stageGlobalIndex(sc, mp.Table, s.GI, locs, mp.Op)
			case mplan.StageView:
				return c.stageView(sc, s.View, mp, delta, sx)
			}
			return fmt.Errorf("cluster: unknown pipeline stage %v", s.Kind)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// sharedStageName is the per-stage metrics label of the shared delta-join
// pre-pass.
const sharedStageName = "sharedjoin"

// sharedResult is one memoized chain-prefix intermediate: the joined
// tuples and their schema.
type sharedResult struct {
	tuples []types.Tuple
	schema *types.Schema
}

// sharedExec carries one statement's shared maintenance DAG: the memoized
// intermediate of every distinct chain prefix, keyed by structural chain
// key.
type sharedExec struct {
	memo map[string]sharedResult
}

// execSharedJoins is the shared delta-join pre-pass: it walks every view
// stage's compiled plan and executes each distinct chain prefix once. Chain
// keys are structural (plan.Step.ChainKey), so two plans whose prefixes
// share a key produce identical intermediates and the second ride is free.
// The probes are pure reads — nothing here enters the undo log; all
// mutation stays in the per-view apply.
//
// An empty intermediate short-circuits like the per-view path: the
// remaining prefixes are memoized as empty without probing, so the shared
// path performs exactly the probes the unshared path would.
func (c *Cluster) execSharedJoins(sc *stmtScope, mp *mplan.Plan, tuples []types.Tuple) (*sharedExec, error) {
	sx := &sharedExec{memo: make(map[string]sharedResult)}
	for i := range mp.Stages {
		s := &mp.Stages[i]
		if s.Kind != mplan.StageView {
			continue
		}
		p := s.View.Plan
		cur, curSchema := tuples, p.DeltaSchema
		for _, step := range p.Steps {
			if r, ok := sx.memo[step.ChainKey]; ok {
				cur, curSchema = r.tuples, r.schema
				continue
			}
			if len(cur) == 0 {
				curSchema = maintain.StepOutSchema(step, curSchema)
				sx.memo[step.ChainKey] = sharedResult{schema: curSchema}
				continue
			}
			next, _, err := maintain.ExecStep(sc.env, step, cur, curSchema, c.cfg.Algo)
			if err != nil {
				return nil, err
			}
			curSchema = maintain.StepOutSchema(step, curSchema)
			cur = next
			sx.memo[step.ChainKey] = sharedResult{tuples: cur, schema: curSchema}
		}
	}
	return sx, nil
}

// stageBaseInsert routes tuples by the partition attribute and stores
// them, returning each tuple's storage location. The tuples are
// schema-checked already (resolve).
func (c *Cluster) stageBaseInsert(sc *stmtScope, t *catalog.Table, tuples []types.Tuple) ([]located, error) {
	pi := t.Schema.MustColIndex(t.PartitionCol)
	// Two counting passes carve the per-node buckets (tuples and original
	// indexes) out of two exactly-sized backing arrays — no append growth
	// on the hot path.
	homes := make([]int, len(tuples))
	counts := make([]int, c.NumNodes())
	for i, tup := range tuples {
		n := c.part.NodeFor(tup[pi])
		homes[i] = n
		counts[n]++
	}
	tupleBacking := make([]types.Tuple, len(tuples))
	idxBacking := make([]int, len(tuples))
	bucketTuples := make([][]types.Tuple, c.NumNodes())
	bucketIdx := make([][]int, c.NumNodes())
	off := 0
	for n := 0; n < c.NumNodes(); n++ {
		bucketTuples[n] = tupleBacking[off : off : off+counts[n]]
		bucketIdx[n] = idxBacking[off : off : off+counts[n]]
		off += counts[n]
	}
	for i, tup := range tuples {
		n := homes[i]
		bucketTuples[n] = append(bucketTuples[n], tup)
		bucketIdx[n] = append(bucketIdx[n], i)
	}
	ep, fl := c.writeEpoch(t.Name), c.gcFloorFor(t.Name)
	var calls []netsim.Call
	for n, bucket := range bucketTuples {
		if len(bucket) == 0 {
			continue
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: node.Insert{Frag: t.Name, Tuples: bucket, Epoch: ep, GCFloor: fl}})
	}
	resps, err := sc.scatter(calls)
	if err != nil {
		return nil, err
	}
	locs := make([]located, len(tuples))
	for ci, resp := range resps {
		n := calls[ci].To
		for bi, row := range resp.(node.InsertResult).Rows {
			locs[bucketIdx[n][bi]] = located{node: n, row: row, tuple: bucketTuples[n][bi]}
		}
	}
	return locs, nil
}

// stageBaseDelete removes the located victims from the base relation: one
// scatter call per node holding victims, in node order (the victim scan
// emits locs node-by-node, so the grouping below is already sorted and the
// dispatch is deterministic).
func (c *Cluster) stageBaseDelete(sc *stmtScope, t *catalog.Table, locs []located) error {
	byNode := make([][]storage.RowID, c.NumNodes())
	for _, loc := range locs {
		byNode[loc.node] = append(byNode[loc.node], loc.row)
	}
	ep, fl := c.writeEpoch(t.Name), c.gcFloorFor(t.Name)
	var calls []netsim.Call
	for n, rows := range byNode {
		if len(rows) == 0 {
			continue
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: node.DeleteRows{Frag: t.Name, Rows: rows, Epoch: ep, GCFloor: fl}})
	}
	_, err := sc.scatter(calls)
	return err
}

// stageAuxRel propagates the base delta into one auxiliary relation of the
// table. For deletes, victims are matched by value (bag semantics).
func (c *Cluster) stageAuxRel(sc *stmtScope, t *catalog.Table, ar *catalog.AuxRel, tuples []types.Tuple, op maintain.Op) error {
	projected, err := projectForAuxRel(t, ar, tuples)
	if err != nil {
		return err
	}
	buckets, err := c.part.Spread(ar.Schema, ar.PartitionCol, projected)
	if err != nil {
		return err
	}
	ep, fl := c.writeEpoch(ar.Name), c.gcFloorFor(ar.Name)
	var calls []netsim.Call
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		var req any
		if op == maintain.OpInsert {
			req = node.Insert{Frag: ar.Name, Tuples: bucket, Epoch: ep, GCFloor: fl}
		} else {
			req = node.DeleteMatch{Frag: ar.Name, HintCol: ar.PartitionCol, Tuples: bucket, Epoch: ep, GCFloor: fl}
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: req})
	}
	_, err = sc.scatter(calls)
	return err
}

// stageGlobalIndex maintains one global index of the updated table. The
// statement's entries are grouped by index home node into one batched
// envelope per destination — replacing the per-(tuple, index) message
// storm — while each envelope's Sources field keeps the logical accounting
// of the calls it replaces: every entry counts one SEND from the base
// tuple's home node to the index home (free when they coincide), and the
// node meters charge per entry, so the paper's cost figures are unchanged
// by batching.
func (c *Cluster) stageGlobalIndex(sc *stmtScope, t *catalog.Table, gi *catalog.GlobalIndex, locs []located, op maintain.Op) error {
	type giBatch struct {
		vals []types.Value
		gs   []storage.GlobalRowID
		srcs []int32
	}
	ci := t.Schema.MustColIndex(gi.Col)
	giName := gi.Name
	batches := make([]giBatch, c.NumNodes())
	for _, loc := range locs {
		val := loc.tuple[ci]
		home := c.part.NodeFor(val)
		b := &batches[home]
		b.vals = append(b.vals, val)
		b.gs = append(b.gs, storage.GlobalRowID{Node: int32(loc.node), Row: loc.row})
		b.srcs = append(b.srcs, int32(loc.node))
	}
	var calls []netsim.Call
	for home := range batches {
		b := &batches[home]
		if len(b.vals) == 0 {
			continue
		}
		var req any
		if op == maintain.OpInsert {
			req = node.GIInsertBatch{GI: giName, Vals: b.vals, Gs: b.gs, Metered: true, Sources: b.srcs}
		} else {
			req = node.GIDeleteBatch{GI: giName, Vals: b.vals, Gs: b.gs, Sources: b.srcs}
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: home, Req: req})
	}
	resps, err := sc.scatter(calls)
	if err != nil || op == maintain.OpInsert {
		return err
	}
	for i, resp := range resps {
		for j, existed := range resp.(node.GIDeletedBatch).OK {
			if !existed {
				return fmt.Errorf("cluster: global index %q missing entry for %v (out of sync)", giName, batches[calls[i].To].vals[j])
			}
		}
	}
	return nil
}

// stageView computes and applies one view's delta with the compiled
// stage's plan. With a shared pre-pass (sx non-nil) the delta-join chain
// has already run — the stage reads the memoized final intermediate and
// performs only the per-view tail.
func (c *Cluster) stageView(sc *stmtScope, vs *mplan.ViewStage, mp *mplan.Plan, tuples []types.Tuple, sx *sharedExec) error {
	var delta []types.Tuple
	var err error
	p := vs.Plan
	if sx != nil {
		cur, curSchema := tuples, p.DeltaSchema
		if n := len(p.Steps); n > 0 {
			r := sx.memo[p.Steps[n-1].ChainKey]
			cur, curSchema = r.tuples, r.schema
		}
		delta, err = maintain.FinishDelta(p, cur, curSchema)
	} else {
		delta, _, err = maintain.ComputeViewDelta(sc.env, p, tuples, c.cfg.Algo)
	}
	if err != nil {
		return err
	}
	return maintain.ApplyToView(sc.env, vs.View, delta, mp.Op)
}

// ExplainPipeline renders the compiled maintenance pipeline for one
// (table, op) pair — EXPLAIN for the whole write path. op is "insert" or
// "delete".
func (c *Cluster) ExplainPipeline(table, op string) (string, error) {
	var mop maintain.Op
	switch op {
	case "insert":
		mop = maintain.OpInsert
	case "delete":
		mop = maintain.OpDelete
	default:
		return "", fmt.Errorf("cluster: unknown pipeline op %q (want insert or delete)", op)
	}
	h := c.lockGlobal()
	defer h.Release()
	mp, err := c.planFor(table, mop)
	if err != nil {
		return "", err
	}
	out := mp.Describe()
	if mp.SharedPotential {
		// Price the DAG per delta tuple; every delta size scales it.
		out += mp.DescribeDAG(1)
	}
	return out, nil
}

// ExplainMaintenance renders the delta-join plan a view runs for inserts
// into the named table — EXPLAIN for one view stage of the compiled
// pipeline, with the method it was compiled to.
func (c *Cluster) ExplainMaintenance(viewName, table string) (string, error) {
	h := c.lockGlobal()
	defer h.Release()
	if _, err := c.cat.View(viewName); err != nil {
		return "", err
	}
	mp, err := c.planFor(table, maintain.OpInsert)
	if err != nil {
		return "", err
	}
	for _, s := range mp.Stages {
		if s.Kind == mplan.StageView && s.View.View.Name == viewName {
			return fmt.Sprintf("strategy: %s\n%s", s.View.Strategy, s.View.Plan.Describe()), nil
		}
	}
	return "", fmt.Errorf("cluster: view %q does not join table %q", viewName, table)
}

// PlanCacheLen reports how many compiled plans the cache currently holds.
func (c *Cluster) PlanCacheLen() int { return c.mcache.Len() }

// AdviseMaterialization runs the materialization advisor over the current
// catalog and statistics: which auxiliary relations / global indexes would
// reduce the modeled maintenance workload of the present view set under
// the shared-DAG executor. Pure analysis — nothing is created.
func (c *Cluster) AdviseMaterialization() (*mplan.Advice, error) {
	h := c.lockGlobal()
	defer h.Release()
	return mplan.Advise(c.cat, c.st)
}

package cluster

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// located ties a base tuple to its storage position, for global-index
// entries and undo.
type located struct {
	node  int
	row   storage.RowID
	tuple types.Tuple
}

// stmt is the one write statement: the paper's "begin transaction; update
// base relation; update auxiliary relation; update join view; end
// transaction", with an UPDATE treated as delete-then-insert. Autocommit
// DML, a statement inside a Txn, a transaction's compensation, a deferred
// statement and a flush-epoch group are all one of these; resolve and
// apply are the only code that knows how it runs (DESIGN.md "Write
// statements").
type stmt struct {
	table string
	// Victim source: the tuples matching where (scan; a nil predicate
	// matches every tuple), else one stored instance per tuple of remove
	// (value-addressed), else none.
	scan   bool
	where  expr.Expr
	remove []types.Tuple
	// set, when non-nil, re-adds every victim with these columns replaced
	// (column -> new value). A statement carries set or add, not both.
	set map[string]types.Value
	// add holds the tuples to insert: the caller's, or the replacements
	// resolve builds from set.
	add []types.Tuple
	// tag marks a flush-epoch group: it rides on the 2PC commit record.
	tag *wal.FlushCommit

	// victims and locs are what resolve found: the stored tuples the
	// statement removes and where they live.
	victims []types.Tuple
	locs    []located
}

func (st *stmt) empty() bool { return len(st.victims) == 0 && len(st.add) == 0 }

// Insert runs one insert transaction against a base table: route and store
// the tuples, update every auxiliary relation and global index of the
// table, then propagate the delta into every join view on the table using
// the view's maintenance strategy — the compiled insert pipeline for the
// table. On any error all applied work is rolled back.
func (c *Cluster) Insert(table string, tuples []types.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	_, err := c.write(stmt{table: table, add: tuples}, c.asyncOn())
	return err
}

// Delete removes every tuple of the table matching pred, maintaining all
// auxiliary structures and views, and returns the deleted tuples.
func (c *Cluster) Delete(table string, pred expr.Expr) ([]types.Tuple, error) {
	st, err := c.write(stmt{table: table, scan: true, where: pred}, c.asyncOn())
	if err != nil {
		return nil, err
	}
	return st.victims, nil
}

// Update modifies every tuple matching pred by applying the set map
// (column -> new value), implemented as the paper treats updates: the
// compiled delete pipeline for the old tuples followed by the compiled
// insert pipeline for the new ones, all inside one transaction scope. It
// returns the number of tuples updated.
func (c *Cluster) Update(table string, set map[string]types.Value, pred expr.Expr) (int, error) {
	st, err := c.write(updateStmt(table, set, pred), c.asyncOn())
	if err != nil {
		return 0, err
	}
	return len(st.victims), nil
}

func updateStmt(table string, set map[string]types.Value, pred expr.Expr) stmt {
	if set == nil {
		set = map[string]types.Value{} // still an update: victims are re-added unchanged
	}
	return stmt{table: table, scan: true, where: pred, set: set}
}

// write runs one statement end to end — gate, claims, resolve, then apply
// or (deferred) enqueue — under failover retry, and returns it resolved:
// victims are what it removed, add what it inserted. Every attempt starts
// from the unresolved statement.
func (c *Cluster) write(st stmt, deferred bool) (stmt, error) {
	var out stmt
	err := c.withFailover(func() error {
		out = st
		return c.writeOnce(&out, deferred)
	})
	return out, err
}

func (c *Cluster) writeOnce(st *stmt, deferred bool) error {
	if deferred {
		// Both gates run before the statement's table locks are taken: a
		// stalled writer must hold nothing the flusher or a DDL drain needs.
		if err := c.ddlGate(); err != nil {
			return err
		}
		if err := c.admitDelta(); err != nil {
			return err
		}
	}
	h := c.lockStmt(st.table)
	defer h.Release()
	if deferred {
		if err := c.cfg.Faults.Phase("enqueue"); err != nil {
			return err
		}
	}
	if err := c.failIfDegraded(); err != nil {
		return err
	}
	if err := c.resolve(st, deferred); err != nil {
		return err
	}
	if deferred {
		c.enqueue(st)
		return nil
	}
	return c.apply(st)
}

// resolve turns the statement into concrete work, under the caller's
// claims: victims/locs are the stored tuples it removes, add everything it
// inserts (one replacement per victim when set is present), each checked
// against the schema — a statement that cannot apply is refused here,
// before anything is stored or enqueued. The located row ids stay valid
// until apply consumes them because the caller holds the table's claims
// throughout. deferred resolves a predicate against the effective table
// state — the stored base overlaid with the maintenance queue — so the
// victims match what a synchronous statement would have removed; they
// carry no locations (the flush relocates them by value).
func (c *Cluster) resolve(st *stmt, deferred bool) error {
	t, err := c.cat.Table(st.table)
	if err != nil {
		return err
	}
	for col := range st.set {
		if t.Schema.ColIndex(col) < 0 {
			return fmt.Errorf("cluster: update %q: unknown column %q", st.table, col)
		}
	}
	switch {
	case st.scan:
		st.victims, st.locs, err = c.findVictims(st.table, st.where)
		if err == nil && deferred {
			st.locs = nil
			st.victims, err = c.overlayVictims(t, st.where, st.victims)
		}
	case len(st.remove) > 0:
		st.victims, st.locs, err = c.locateTuples(t, st.remove)
	}
	if err != nil {
		return err
	}
	if st.set != nil {
		st.add = make([]types.Tuple, len(st.victims))
		for i, v := range st.victims {
			nt := v.Clone()
			for col, val := range st.set {
				nt[t.Schema.MustColIndex(col)] = val
			}
			st.add[i] = nt
		}
	}
	for _, tup := range st.add {
		if err := t.Schema.Validate(tup); err != nil {
			return fmt.Errorf("cluster: insert into %q: %w", st.table, err)
		}
	}
	return nil
}

// apply runs a resolved statement: the compiled delete pipeline over its
// victims, then the compiled insert pipeline over its adds, inside one
// atomically-committed statement scope — a failure anywhere leaves neither
// half applied. The caller holds the claims; the publish happens before it
// releases them, so the statement's version records become part of the
// committed state for future snapshots. A tagged statement (a flush-epoch
// group) leaves the row-count statistic alone: its statements charged it
// when they were acknowledged.
func (c *Cluster) apply(st *stmt) error {
	if st.empty() {
		// Matched nothing, adds nothing: under presumed abort an empty
		// statement costs nothing — no participants, no decision record.
		return nil
	}
	var del, ins *mplan.Plan
	var err error
	if len(st.victims) > 0 {
		if del, err = c.planFor(st.table, maintain.OpDelete); err != nil {
			return err
		}
	}
	if len(st.add) > 0 {
		if ins, err = c.planFor(st.table, maintain.OpInsert); err != nil {
			return err
		}
	}
	err = c.runStmt(st.tag, func(sc *stmtScope) error {
		if del != nil {
			if err := c.execPlan(sc, del, st.victims, st.locs); err != nil {
				return err
			}
		}
		if ins != nil {
			return c.execPlan(sc, ins, st.add, nil)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.publishStmt(st.table)
	if st.tag == nil {
		c.bumpRows(st.table, int64(len(st.add)-len(st.victims)))
	}
	return nil
}

// findVictims locates the tuples matching pred at every node (a scan; the
// paper's model does not charge victim location, but a real system reads
// the relation).
func (c *Cluster) findVictims(table string, pred expr.Expr) ([]types.Tuple, []located, error) {
	resps, err := c.tr.Broadcast(netsim.Coordinator, node.FindMatching{Frag: table, Pred: pred})
	if err != nil {
		return nil, nil, err
	}
	var locs []located
	var victims []types.Tuple
	for n, r := range resps {
		rr := r.(node.RowsResult)
		for i := range rr.Rows {
			locs = append(locs, located{node: n, row: rr.Rows[i], tuple: rr.Tuples[i]})
			victims = append(victims, rr.Tuples[i])
		}
	}
	return victims, locs, nil
}

// locateTuples finds one stored instance per tuple (value-addressed, via
// each tuple's home node), returning victims and their locations for the
// delete pipeline.
func (c *Cluster) locateTuples(tab *catalog.Table, tuples []types.Tuple) ([]types.Tuple, []located, error) {
	buckets, err := c.part.Spread(tab.Schema, tab.PartitionCol, tuples)
	if err != nil {
		return nil, nil, err
	}
	var victims []types.Tuple
	var locs []located
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		resp, err := c.call(n, node.LocateMatch{Frag: tab.Name, HintCol: tab.PartitionCol, Tuples: bucket})
		if err != nil {
			return nil, nil, err
		}
		rr := resp.(node.RowsResult)
		if len(rr.Rows) != len(bucket) {
			return nil, nil, fmt.Errorf("cluster: located %d of %d tuples in %q at node %d",
				len(rr.Rows), len(bucket), tab.Name, n)
		}
		for i := range rr.Rows {
			victims = append(victims, rr.Tuples[i])
			locs = append(locs, located{node: n, row: rr.Rows[i], tuple: rr.Tuples[i]})
		}
	}
	return victims, locs, nil
}

// ComputeViewDeltaOnly runs just the "compute the changes to the view"
// step for a hypothetical delta, without touching the base relation, the
// auxiliary structures or the view — the exact measurement of the paper's
// §3.3 experiment, which timed the delta_customer ⋈ orders [⋈ lineitem]
// SELECT in isolation. It returns the number of join tuples the delta
// would produce and the I/O/message cost of computing them.
func (c *Cluster) ComputeViewDeltaOnly(viewName, table string, tuples []types.Tuple, strat catalog.Strategy) (int, Metrics, error) {
	// Global: the measurement window reads the whole cluster's meters, so
	// concurrent statements would pollute it.
	h := c.lockGlobal()
	defer h.Release()
	v, err := c.cat.View(viewName)
	if err != nil {
		return 0, Metrics{}, err
	}
	p, err := plan.Build(c.cat, c.st, v, table, strat)
	if err != nil {
		return 0, Metrics{}, err
	}
	before := c.Metrics()
	delta, _, err := maintain.ComputeViewDelta(c.env, p, tuples, c.cfg.Algo)
	if err != nil {
		return 0, Metrics{}, err
	}
	return len(delta), c.Metrics().Sub(before), nil
}

// bumpRows keeps the row-count statistic roughly current between explicit
// RefreshStats calls.
func (c *Cluster) bumpRows(table string, delta int64) {
	ts, ok := c.st.Get(table)
	if !ok || delta == 0 {
		return
	}
	ts.Rows += delta
	if ts.Rows < 0 {
		ts.Rows = 0
	}
	c.st.Set(table, ts)
}

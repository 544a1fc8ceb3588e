package cluster

import "joinview/internal/lockmgr"

// This file decides what each coordinator entry point locks. The claim
// model is by base table:
//
//	resource            writers (X)                     readers (S)
//	-----------------   -----------------------------   -------------------
//	base table T        DML statements on T (the        DML on other tables
//	                    statement also writes AR_T      whose view probes
//	                    and GI_T, which only T-         T, AR_T or GI_T;
//	                    statements touch)               queries over T
//	view V              DML on any base table of V      queries over V
//	global (manager)    DDL, Recover, Checkpoint,       every statement
//	                    CrashNode, serial modes         above
//
// Statements acquire the global lock shared, then their table/view claims
// in sorted order (lockmgr's protocol), so two statements conflict exactly
// when they touch an overlapping table or view. Everything that mutates
// the catalog or the cluster topology takes the global lock exclusively
// and needs no claims.

// parallelDispatch reports whether per-node fan-outs inside one statement
// may run concurrently: on the channel and TCP transports (Direct handlers
// execute on the caller's goroutine and the experiments depend on its
// deterministic traces). Durability forces serial dispatch: the
// transaction itself is per statement (stmtScope carries its id,
// participant set and undo log), but the nodes' write-ahead sequence order
// and the coordinator's decision log have not been exercised or measured
// under concurrent statements. Fault injection forces it too: its
// deterministic chaos schedules assume one delivery at a time.
func (c *Cluster) parallelDispatch() bool {
	return (c.cfg.UseChannels || c.cfg.UseTCP) && !c.cfg.Durability && c.cfg.Faults == nil
}

// serialStmts reports whether DML statements must serialize cluster-wide
// (the seed's one-big-lock execution model).
func (c *Cluster) serialStmts() bool {
	return !c.parallelDispatch()
}

// stmtClaims computes the lock set of one DML statement on table: the
// table and every view over it exclusively, the views' other base tables
// shared (the statement reads their fragments, auxiliary relations or
// global indexes while computing the view delta). Must be called with the
// global shared lock held — it reads the catalog, which DDL mutates under
// the global exclusive lock.
func (c *Cluster) stmtClaims(table string) []lockmgr.Claim {
	claims := []lockmgr.Claim{lockmgr.X(table)}
	for _, v := range c.cat.ViewsOn(table) {
		claims = append(claims, lockmgr.X(v.Name))
		for _, t2 := range v.Tables {
			if t2 != table {
				claims = append(claims, lockmgr.S(t2))
			}
		}
	}
	return claims
}

// lockStmt acquires the locks for one DML statement on table. In any
// serial mode this is the global exclusive lock (the seed's one-big-lock
// behavior); otherwise the statement's table-level claims plus a shared
// claim on every hash range currently being migrated, so the migration
// cutover (which takes those ranges exclusively) cannot slide under a
// statement that is mid-flight against the moving data.
func (c *Cluster) lockStmt(table string) *lockmgr.Held {
	if c.serialStmts() {
		return c.lm.AcquireGlobal()
	}
	h := c.lm.AcquireShared()
	h.Lock(append(c.stmtClaims(table), c.migRangeClaims(lockmgr.S)...)...)
	return h
}

// lockRead acquires shared claims on the named relations or views for a
// consistent read alongside concurrent writers.
func (c *Cluster) lockRead(names ...string) *lockmgr.Held {
	if c.serialStmts() {
		return c.lm.AcquireGlobal()
	}
	h := c.lm.AcquireShared()
	claims := make([]lockmgr.Claim, len(names))
	for i, n := range names {
		claims[i] = lockmgr.S(n)
	}
	h.Lock(claims...)
	return h
}

// lockGlobal acquires the global exclusive lock: the caller is the only
// operation running until Release (DDL, recovery, checkpoints, session
// rollback across tables).
func (c *Cluster) lockGlobal() *lockmgr.Held {
	return c.lm.AcquireGlobal()
}

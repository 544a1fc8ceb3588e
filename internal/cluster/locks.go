package cluster

import "joinview/internal/lockmgr"

// This file decides what each coordinator entry point locks. There is one
// concurrency-control decision and the delivery stack makes it:
//
//	statements overlap iff the stack is concurrent (netsim.Stack.Concurrent)
//
// — a link whose nodes run off the caller's goroutine, with no fault
// injector installed. Durability, replication, async maintenance and the
// rest of the configuration have no say. Where statements overlap, the
// claim model is by base table:
//
//	resource            writers (X)                     readers (S)
//	-----------------   -----------------------------   -------------------
//	base table T        DML statements on T (the        DML on other tables
//	                    statement also writes AR_T      whose view probes
//	                    and GI_T, which only T-         T, AR_T or GI_T;
//	                    statements touch)               locked reads of T
//	view V              DML on any base table of V      locked reads of V
//	global (manager)    DDL, Recover, Checkpoint,       every statement and
//	                    failover promotion              every read
//
// Where they do not (the Direct link, or any link under an injector), a
// statement takes the global lock exclusively and a read takes it shared:
// the seed's one-big-lock model, which is also what keeps the golden grids'
// traces deterministic.
//
// Lock order, for everyone: the global lock, then table/view claims in
// sorted name order (lockmgr's protocol), then the cluster's readFence. A
// read holds the global lock shared plus either a pinned snapshot behind
// the readFence (no claims) or shared claims (no fence) — never both, so it
// never waits for a claim while holding something a claim holder waits for.
// Everything that mutates the catalog or the cluster topology takes the
// global lock exclusively and needs no claims.

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

// lockStmt acquires the locks for one DML statement on table: the
// statement's table-level claims plus a shared claim on every hash range
// currently being migrated, so the migration cutover (which takes those
// ranges exclusively) cannot slide under a statement that is mid-flight
// against the moving data — or, where statements do not overlap, the global
// exclusive lock.
func (c *Cluster) lockStmt(table string) *lockmgr.Held {
	if !c.net.Concurrent() {
		return c.lm.AcquireGlobal()
	}
	h := c.lm.AcquireShared()
	h.Lock(append(c.stmtClaims(table), c.migRangeClaims(lockmgr.S)...)...)
	return h
}

// lockRead excludes every in-flight writer of the named relations or views
// for a consistent read of their live state: the global lock shared, which
// alone does it where statements hold it exclusively, plus shared claims
// where they overlap.
func (c *Cluster) lockRead(names ...string) *lockmgr.Held {
	h := c.lm.AcquireShared()
	c.claimShared(h, names)
	return h
}

// claimShared adds the shared claims of lockRead to h, which holds the
// global lock shared. A structure is claimed under its owner — the name its
// writers claim: an auxiliary relation under its base table.
func (c *Cluster) claimShared(h *lockmgr.Held, names []string) {
	if !c.net.Concurrent() {
		return
	}
	claims := make([]lockmgr.Claim, len(names))
	for i, n := range names {
		if spec, ok := c.fragSpecOf(n, false); ok {
			n = spec.Owner
		}
		claims[i] = lockmgr.S(n)
	}
	h.Lock(claims...)
}

// lockGlobal acquires the global exclusive lock: the caller is the only
// operation running until Release (DDL, recovery, checkpoints, session
// rollback across tables).
func (c *Cluster) lockGlobal() *lockmgr.Held {
	return c.lm.AcquireGlobal()
}

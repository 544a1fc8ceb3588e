package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"joinview/internal/catalog"
	"joinview/internal/maintain"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/wal"
)

// This file is the coordinator side of the durability layer: presumed-abort
// two-phase commit around each DML statement, and crash/restart recovery
// driven from the nodes' write-ahead logs.
//
// Protocol per statement (Durability mode):
//
//  1. runStmt opens the statement's scope, which carries its transaction
//     id; every mutating sub-request sent through the scope is stamped with
//     it (Seq.TID) and redo-logged at the receiving node, which joins the
//     scope's participant set.
//  2. On success, commitStmt sends Prepare to every participant (each
//     forces its log — its yes vote), then forces a COMMIT record to the
//     coordinator's own log: the commit point. Decide{Commit:true} then
//     fans out lazily; a lost decision only costs the restarted node a
//     query against the coordinator's log.
//  3. On failure, rollback walks the scope's undo log (stamped with the
//     same TID, so the compensations are redo-logged too and the log
//     algebra nets to zero), then Decide{Commit:false} tells live
//     participants to forget the transaction. Nothing is logged at the
//     coordinator: absence of a decision IS the abort decision (presumed
//     abort).
//
// A participant that crashes mid-protocol restarts from its checkpoint +
// log tail and reports its undecided transactions; Recover resolves each
// against the coordinator's decision log — Decide{Commit:true} if a COMMIT
// record exists, ResolveAbort (node-local inverse replay) otherwise.

// applied is one undo-log entry: a mutating sub-request the delivery layer
// saw applied at node to, with the response the node gave.
type applied struct {
	to        int
	req, resp any
}

// stmtScope is one write statement's transaction scope and the transport
// its work goes through: the stage functions scatter over it and env is the
// cluster's maintain.Env with T = the scope and Cat = the catalog snapshot
// the statement runs on from plan lookup to apply. A DDL operation runs
// through a scope too: its Cat is the draft it is building, and its undo
// log is what a failed DDL rolls back. Being on the delivery path is
// what lets it own the three things a statement needs to be atomic: the
// transaction id stamped on its mutating sub-requests (0 when durability is
// off: compensation only), the nodes that joined its two-phase commit, and
// the undo log — every forward mutation the delivery layer saw applied
// (tapMutation), in order. A request is undone iff it is in that log; its
// inverse is node.InverseOf (DESIGN.md "Fault model and recovery").
type stmtScope struct {
	*resilientTransport
	env maintain.Env
	tid uint64

	// mu: parallel dispatch delivers one stage's calls concurrently.
	mu    sync.Mutex
	parts map[int]bool
	log   []applied
}

// newScope opens a scope on cat outside any transaction (tid 0: its work
// is compensated on failure, never two-phase committed).
func (c *Cluster) newScope(cat *catalog.Catalog) *stmtScope {
	sc := &stmtScope{resilientTransport: c.tr, env: c.env}
	sc.env.T, sc.env.Cat = sc, cat
	return sc
}

// catalogOf returns the catalog statement sc runs on, or the published one
// for traffic outside any statement (sc nil).
func (c *Cluster) catalogOf(sc *stmtScope) *catalog.Catalog {
	if sc != nil {
		return sc.env.Cat
	}
	return c.Catalog()
}

// beginStmt opens the scope of one statement on cat, assigning its
// transaction id when durability is on.
func (c *Cluster) beginStmt(cat *catalog.Catalog) *stmtScope {
	sc := c.newScope(cat)
	if c.cfg.Durability {
		sc.tid = c.tids.Add(1)
		sc.parts = map[int]bool{}
	}
	return sc
}

// Call implements netsim.Transport.
func (sc *stmtScope) Call(from, to int, req any) (any, error) {
	return sc.c.resilientCall(sc, forward, from, to, req)
}

// Broadcast implements netsim.Transport.
func (sc *stmtScope) Broadcast(from int, req any) ([]any, error) {
	return sc.broadcast(sc, from, req)
}

// scatter dispatches per-node calls through the scope — concurrently where
// the stack is — gathering responses in input order.
func (sc *stmtScope) scatter(calls []netsim.Call) ([]any, error) {
	return netsim.ScatterCalls(sc, sc.Concurrent(), calls)
}

// stamp returns the transaction id for a mutating sub-request bound for
// dests and joins them to the commit protocol. Conservative: they join
// before delivery, so even an uncertain outcome keeps a node in it. A nil
// scope (DDL, recovery, reads) stamps nothing.
func (sc *stmtScope) stamp(dests []int) uint64 {
	if sc == nil || sc.tid == 0 {
		return 0
	}
	sc.mu.Lock()
	for _, n := range dests {
		sc.parts[n] = true
	}
	sc.mu.Unlock()
	return sc.tid
}

// participants lists the nodes that joined the transaction, sorted.
func (sc *stmtScope) participants() []int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sortedKeys(sc.parts)
}

// record appends one applied forward mutation to the undo log.
func (sc *stmtScope) record(to int, req, resp any) {
	sc.mu.Lock()
	sc.log = append(sc.log, applied{to: to, req: req, resp: resp})
	sc.mu.Unlock()
}

// logDecision forces a COMMIT record for the transaction to the
// coordinator's log — the commit point of two-phase commit. A flush-epoch
// group's statement carries its FlushCommit tag on the record (Req), so
// the group's commit point doubles as its durable done marker.
func (c *Cluster) logDecision(tid uint64, tag *wal.FlushCommit) {
	rec := wal.Record{Kind: wal.KindCommit, TID: tid}
	if tag != nil {
		rec.Req = *tag
	}
	c.coordLog.Append(rec)
	c.coordLog.Force()
	c.pmu.Lock()
	c.decided[tid] = true
	c.pmu.Unlock()
}

// committedTID reports whether the coordinator decided commit for the
// transaction. Under presumed abort, false means abort.
func (c *Cluster) committedTID(tid uint64) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.decided[tid]
}

// Decisions returns the transaction ids the coordinator has committed, in
// ascending order (inspection and tests).
func (c *Cluster) Decisions() []uint64 {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	out := make([]uint64, 0, len(c.decided))
	for tid := range c.decided {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runStmt executes body as one atomically-committed statement on cat: its
// work goes through a fresh scope, a failure rolls the scope's undo log
// back, and — when durability is on — success commits by presumed-abort
// two-phase commit, whose commit record carries tag (nil for everything
// but a flush-epoch group).
func (c *Cluster) runStmt(cat *catalog.Catalog, tag *wal.FlushCommit, body func(sc *stmtScope) error) error {
	sc := c.beginStmt(cat)
	err := body(sc)
	if err == nil {
		err = c.commitStmt(sc, tag)
	}
	return c.settle(sc, err)
}

// settle ends a scope whose work returned err: a failure rolls the scope's
// undo log back and is returned, with the rollback's own failure if any.
func (c *Cluster) settle(sc *stmtScope, err error) error {
	if err == nil {
		return nil
	}
	if rbErr := c.abortStmt(sc); rbErr != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
	}
	return err
}

// commitStmt drives phase one (Prepare at every participant) and, on
// unanimous yes, the commit point and lazy decision fan-out. A failed
// prepare vetoes: the caller rolls the statement back and aborts.
func (c *Cluster) commitStmt(sc *stmtScope, tag *wal.FlushCommit) error {
	if sc.tid == 0 {
		return nil
	}
	parts := sc.participants()
	for _, p := range parts {
		if _, err := c.rawDeliver(p, node.Prepare{TID: sc.tid}); err != nil {
			return fmt.Errorf("cluster: prepare failed at node %d: %w", p, err)
		}
	}
	c.logDecision(sc.tid, tag)
	for _, p := range parts {
		// Lazy and best-effort: a participant that misses the decision
		// resolves it from the coordinator's log at recovery.
		_, _ = c.rawDeliver(p, node.Decide{TID: sc.tid, Commit: true})
	}
	return nil
}

// abortStmt rolls the statement back and tells live participants to forget
// the transaction. Per presumed abort, the coordinator logs nothing: a
// restarted participant that finds no decision aborts locally.
//
// The rollback is the undo log in reverse, each entry's node.InverseOf
// delivered as a compensation on its own (under the statement's TID, so it
// is redo-logged at the node): an unreachable destination is absorbed by
// undoCall and never stops the entries after it. Mirror deliveries are not
// in the log; the mirror of the primary's inverse undoes them.
func (c *Cluster) abortStmt(sc *stmtScope) error {
	var errs []error
	for i := len(sc.log) - 1; i >= 0; i-- {
		e := sc.log[i]
		inv := node.InverseOf(e.req, e.resp)
		if inv == nil {
			continue // nothing was changed (e.g. a delete that matched no entry)
		}
		if err := c.undoCall(sc, e.to, inv, e.req); err != nil {
			errs = append(errs, fmt.Errorf("cluster: undoing %T at node %d: %w", e.req, e.to, err))
		}
	}
	sc.log = nil
	if sc.tid != 0 {
		for _, p := range sc.participants() {
			if c.isDown(p) {
				continue // resolved by presumption at the node's recovery
			}
			_, _ = c.rawDeliver(p, node.Decide{TID: sc.tid, Commit: false})
		}
	}
	return errors.Join(errs...)
}

// Checkpoint takes a checkpoint on every live node (fragments, global
// indexes, dedup cache), truncating each node's log up to the image. It
// returns the per-node results; down nodes are skipped (their checkpoint
// happens after recovery).
func (c *Cluster) Checkpoint() ([]node.CheckpointResult, error) {
	if !c.cfg.Durability {
		return nil, fmt.Errorf("cluster: checkpoint requires Durability mode")
	}
	h := c.lockGlobal()
	defer h.Release()
	out := make([]node.CheckpointResult, c.NumNodes())
	for n := 0; n < c.NumNodes(); n++ {
		if c.isDown(n) {
			continue
		}
		resp, err := c.rawDeliver(n, node.CheckpointReq{})
		if err != nil {
			return out, fmt.Errorf("cluster: checkpoint at node %d: %w", n, err)
		}
		out[n] = resp.(node.CheckpointResult)
	}
	return out, nil
}

// CrashNode fail-stops a durable node: the fault layer starts refusing
// deliveries to it and its volatile state (fragments, indexes, dedup
// cache) is wiped, leaving only the write-ahead log and checkpoint. The
// wipe travels over the pre-fault transport, since the fault layer now
// refuses the node. Only meaningful in Durability mode — without a log,
// wiping a node would be unrecoverable data loss.
func (c *Cluster) CrashNode(n int) error {
	if !c.cfg.Durability {
		return fmt.Errorf("cluster: CrashNode requires Durability mode (non-durable crashes keep state; use the fault injector)")
	}
	if n < 0 || n >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.Crash(n)
	}
	c.noteDown(n)
	if _, err := c.net.Bypass(netsim.Coordinator, n, node.CrashReq{}); err != nil {
		return fmt.Errorf("cluster: crashing node %d: %w", n, err)
	}
	return nil
}

// RestartNode brings a crashed durable node back: the fault layer resumes
// deliveries and the node reloads its last checkpoint and replays its log
// tail. The returned RestartResult lists transactions still in doubt;
// Recover resolves them (restart + resolution in one call).
func (c *Cluster) RestartNode(n int) (node.RestartResult, error) {
	h := c.lockGlobal()
	defer h.Release()
	return c.restartNodeLocked(n)
}

func (c *Cluster) restartNodeLocked(n int) (node.RestartResult, error) {
	if !c.cfg.Durability {
		return node.RestartResult{}, fmt.Errorf("cluster: RestartNode requires Durability mode")
	}
	if n < 0 || n >= c.NumNodes() {
		return node.RestartResult{}, fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.Restart(n)
	}
	c.breakerReset(n)
	resp, err := c.rawDeliver(n, node.RestartReq{})
	if err != nil {
		return node.RestartResult{}, fmt.Errorf("cluster: restarting node %d: %w", n, err)
	}
	return resp.(node.RestartResult), nil
}

// RecoveryReport accounts what one Recover call did and what it cost.
type RecoveryReport struct {
	Node int
	// Mode is "replay" (checkpoint + log tail, Durability mode),
	// "rebuild" (derived fragments recomputed from base relations) or
	// "rereplicate" (ReplicationFactor > 1: the node is wiped and copied
	// back in as a follower; only Node, Mode and Messages are filled).
	Mode string
	// CheckpointPages and LogPagesRead are the durable-image and log-tail
	// pages the replay path read; RecordsReplayed the redo records it
	// re-applied. Zero in rebuild mode.
	CheckpointPages int
	LogPagesRead    int
	RecordsReplayed int
	// RepairsReplayed counts drained repair-queue entries: compensations
	// and in-doubt requests in rebuild mode, a failed DDL's undo in replay
	// mode.
	RepairsReplayed int
	// InDoubtResolved counts transactions settled during recovery:
	// Committed learned a commit decision, Aborted were undone locally by
	// presumption.
	InDoubtResolved int
	Committed       int
	Aborted         int
	// PageIOs is the recovering node's metered I/O during recovery (log
	// and checkpoint reads plus re-applied operations) in replay mode, or
	// the estimated pages scanned and written by the full rebuild (the
	// rebuild path reuses unmetered DDL backfill, so it is tallied
	// explicitly).
	PageIOs int64
	// Messages is the interconnect traffic recovery generated.
	Messages int64
}

// recoverDurable is Recover's Durability-mode path: restart the node from
// its own durable state, then resolve its in-doubt transactions against
// the coordinator's decision log. Per-node: no other node is touched, no
// derived rebuild happens, and recovery of different nodes is independent.
func (c *Cluster) recoverDurable(n int) (RecoveryReport, error) {
	rep := RecoveryReport{Node: n, Mode: "replay"}
	ioBefore := c.nodes[n].Meter().Snapshot()
	netBefore := c.tr.Stats()
	res, err := c.restartNodeLocked(n)
	if err != nil {
		return rep, err
	}
	rep.CheckpointPages = res.CheckpointPages
	rep.LogPagesRead = res.LogPagesRead
	rep.RecordsReplayed = res.RecordsReplayed
	for _, tid := range res.InDoubt {
		if c.committedTID(tid) {
			if _, err := c.rawDeliver(n, node.Decide{TID: tid, Commit: true}); err != nil {
				return rep, fmt.Errorf("cluster: delivering commit decision for tid %d to node %d: %w", tid, n, err)
			}
			rep.Committed++
		} else {
			if _, err := c.rawDeliver(n, node.ResolveAbort{TID: tid}); err != nil {
				return rep, fmt.Errorf("cluster: aborting in-doubt tid %d at node %d: %w", tid, n, err)
			}
			rep.Aborted++
		}
		rep.InDoubtResolved++
	}
	// The log replay re-applied any DDL work the node logged before it
	// crashed; a DDL that failed queued its undo here.
	if err := c.drainRepairs(n, &rep); err != nil {
		return rep, err
	}
	c.dmu.Lock()
	delete(c.downNodes, n)
	delete(c.needRebuild, n)
	c.dmu.Unlock()
	rep.PageIOs = c.nodes[n].Meter().Snapshot().Sub(ioBefore).IOs()
	rep.Messages = c.tr.Stats().Messages - netBefore.Messages
	return rep, nil
}

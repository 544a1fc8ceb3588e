package cluster

import (
	"fmt"
	"sort"

	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/txn"
	"joinview/internal/wal"
)

// This file is the coordinator side of the durability layer: presumed-abort
// two-phase commit around each DML statement, and crash/restart recovery
// driven from the nodes' write-ahead logs.
//
// Protocol per statement (Durability mode):
//
//  1. beginStmt assigns a transaction id; every mutating sub-request the
//     statement sends is stamped with it (Seq.TID) and redo-logged at the
//     receiving node, which becomes a participant.
//  2. On success, commitStmt sends Prepare to every participant (each
//     forces its log — its yes vote), then forces a COMMIT record to the
//     coordinator's own log: the commit point. Decide{Commit:true} then
//     fans out lazily; a lost decision only costs the restarted node a
//     query against the coordinator's log.
//  3. On failure, the coordinator's compensations run first (stamped with
//     the same TID, so they are redo-logged too and the log algebra nets
//     to zero), then Decide{Commit:false} tells live participants to
//     forget the transaction. Nothing is logged at the coordinator:
//     absence of a decision IS the abort decision (presumed abort).
//
// A participant that crashes mid-protocol restarts from its checkpoint +
// log tail and reports its undecided transactions; Recover resolves each
// against the coordinator's decision log — Decide{Commit:true} if a COMMIT
// record exists, ResolveAbort (node-local inverse replay) otherwise.

// beginStmt opens a two-phase-commit scope for one statement, returning
// its transaction id (0 when durability is off: the legacy
// compensation-only protocol).
func (c *Cluster) beginStmt() uint64 {
	if !c.cfg.Durability {
		return 0
	}
	tid := c.tids.Add(1)
	c.pmu.Lock()
	c.parts = map[int]bool{}
	c.pmu.Unlock()
	c.curTID.Store(tid)
	return tid
}

// addParticipant records that the current transaction sent mutating work
// to a node. Conservative: registered before delivery, so even an
// uncertain outcome keeps the node in the commit protocol.
func (c *Cluster) addParticipant(n int) {
	c.pmu.Lock()
	c.parts[n] = true
	c.pmu.Unlock()
}

// takeParticipants returns and clears the current participant set, sorted.
func (c *Cluster) takeParticipants() []int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	out := make([]int, 0, len(c.parts))
	for n := range c.parts {
		out = append(out, n)
	}
	c.parts = map[int]bool{}
	sort.Ints(out)
	return out
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

// runStmt executes body as one atomically-committed statement: an undo
// scope for coordinator-side compensation, wrapped — when durability is on
// — in presumed-abort two-phase commit, whose commit record carries tag
// (nil for everything but a flush-epoch group).
func (c *Cluster) runStmt(tag *wal.FlushCommit, body func(tx *txn.Txn) error) error {
	tid := c.beginStmt()
	var tx txn.Txn
	if err := body(&tx); err != nil {
		if rbErr := c.abortStmt(tid, &tx); rbErr != nil {
			return fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	return c.commitStmt(tid, &tx, tag)
}

// commitStmt drives phase one (Prepare at every participant) and, on
// unanimous yes, the commit point and lazy decision fan-out. A failed
// prepare vetoes: the statement rolls back and aborts.
func (c *Cluster) commitStmt(tid uint64, tx *txn.Txn, tag *wal.FlushCommit) error {
	if tid == 0 {
		tx.Commit()
		return nil
	}
	parts := c.takeParticipants()
	for _, p := range parts {
		if _, err := c.rawDeliver(p, node.Prepare{TID: tid}); err != nil {
			// Re-register the participants so the abort path can still
			// reach them, and keep the TID stamped for the compensations.
			for _, q := range parts {
				c.addParticipant(q)
			}
			if rbErr := c.abortStmt(tid, tx); rbErr != nil {
				return fmt.Errorf("cluster: prepare failed at node %d: %w (rollback also failed: %v)", p, err, rbErr)
			}
			return fmt.Errorf("cluster: prepare failed at node %d: %w", p, err)
		}
	}
	c.logDecision(tid, tag)
	c.curTID.Store(0)
	for _, p := range parts {
		// Lazy and best-effort: a participant that misses the decision
		// resolves it from the coordinator's log at recovery.
		_, _ = c.rawDeliver(p, node.Decide{TID: tid, Commit: true})
	}
	tx.Commit()
	return nil
}

// abortStmt rolls the statement back (compensations run under the same
// TID, so they are redo-logged at the nodes) and tells live participants
// to forget the transaction. Per presumed abort, the coordinator logs
// nothing: a restarted participant that finds no decision aborts locally.
func (c *Cluster) abortStmt(tid uint64, tx *txn.Txn) error {
	rbErr := tx.Rollback()
	if tid == 0 {
		return rbErr
	}
	c.curTID.Store(0)
	for _, p := range c.takeParticipants() {
		if c.isDown(p) {
			continue // resolved by presumption at the node's recovery
		}
		_, _ = c.rawDeliver(p, node.Decide{TID: tid, Commit: false})
	}
	return rbErr
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
	// RepairsReplayed counts drained repair-queue entries (rebuild mode).
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
	c.dmu.Lock()
	delete(c.downNodes, n)
	delete(c.repairs, n)
	delete(c.needRebuild, n)
	c.dmu.Unlock()
	rep.PageIOs = c.nodes[n].Meter().Snapshot().Sub(ioBefore).IOs()
	rep.Messages = c.tr.Stats().Messages - netBefore.Messages
	return rep, nil
}

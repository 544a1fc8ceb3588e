package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"joinview/internal/fault"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// This file implements K-way synchronous fragment replication
// (Config.ReplicationFactor): follower copies, write mirroring, fast
// failover by slot promotion, and online re-replication.
//
// Data model. Every cataloged fragment F (base table, auxiliary relation,
// view) and global index g gets a same-node shadow F~r / g~r on every
// node. Node f's shadow holds exactly the rows/entries of the hash slots f
// follows (slots s with f ∈ Repl[s]). Main fragments keep holding only
// primary copies, so every healthy read path — broadcasts, gathers,
// probes, global-index lookups — is unchanged and duplicate-free; the
// RF=1 and RF>=2 healthy paths are byte-identical.
//
// Write path. The resilient delivery layer taps every applied mutating
// sub-request (tapMutation, slotcopy.go): tuples and index entries are
// split by slot and re-delivered to each follower's shadow (followerSink),
// inside the same statement scope — under Durability
// the mirrors carry the statement's TID, so followers participate in the
// presumed-abort two-phase commit. A mirror failure never fails the
// statement: a dead follower is already in the degraded set (the next
// statement fails over around it), any other mirror failure evicts the
// follower (staleRepl) until re-replication copies it fresh.
//
// Failover. When a node is down (crash, MarkNodeDown, or an opened
// circuit breaker, which under replication marks the node down), heal()
// promotes each of its slots to the first live in-sync follower:
// PromoteSlots moves the slot's rows from the follower's shadow into its
// main fragments, global indexes re-home (GIPromoteSlots) and swap
// dangling row references to the promoted copies (GIScrubNode +
// reinsert), and a new map without the victim installs. From then on the
// victim is "failed over": DML commits on the survivors and broadcasts
// answer for the dead node with typed empty responses.
//
// Repair. ReplicateRepair brings the cluster back to full strength
// online: down nodes restart and are wiped back to empty cataloged
// fragments, stale followers' shadows are wiped, a deficit plan picks new
// followers for under-replicated slots, and one copy session (slotcopy.go)
// snapshots each object primary→shadow under that object's claim while
// DML on every other object proceeds; copied objects are "armed" so
// concurrent writers mirror to the new followers too, and a final map
// install makes them real. A slot migration (migrate.go) is the same
// session ending in a promotion instead.

// replOn reports whether K-way replication is configured.
func (c *Cluster) replOn() bool { return c.cfg.ReplicationFactor > 1 }

// replShadowSuffix marks follower shadow fragments.
const replShadowSuffix = "~r"

// shadowName returns the follower-shadow fragment name of a cataloged
// fragment or global index.
func shadowName(name string) string { return name + replShadowSuffix }

// replSkip reports whether a fragment name is outside replication: shadow
// fragments (mirroring them would recurse).
func replSkip(name string) bool { return strings.Contains(name, "~") }

// followerSink is the live mirror's slot sink for one structure: an element
// goes to the follower nodes of its slot — the installed replica set minus
// down and evicted followers, plus the in-flight copy session's targets
// once the structure's copy is armed — into the shadow there, metered like
// the primary write, through deliverMirror on behalf of statement sc (nil:
// none). The down/stale sets and the copy session are resolved once, when
// the sink is built.
func (c *Cluster) followerSink(sc *stmtScope, frag string) slotSink {
	pm := c.catalogOf(sc).Partitioner().Map()
	skip, down := map[int]bool{}, map[int]bool{} // skip: down or evicted
	c.dmu.Lock()
	for n := range c.downNodes {
		skip[n], down[n] = true, true
	}
	c.dmu.Unlock()
	c.rmu.Lock()
	for n := range c.staleRepl {
		skip[n] = true
	}
	c.rmu.Unlock()
	sess := c.sess.Load()
	armed := sess != nil && sess.isArmed(frag)
	return slotSink{
		route: func(v types.Value, out []int) []int {
			slot := pm.Slot(v)
			for _, f := range pm.Followers(slot) {
				if !skip[f] {
					out = append(out, f)
				}
			}
			if armed {
				for _, f := range sess.targets[slot] {
					if !down[f] && !containsInt(out, f) {
						out = append(out, f)
					}
				}
			}
			return out
		},
		name:    shadowName,
		deliver: func(dst int, req any, elems int) error { c.deliverMirror(sc, dst, req, elems); return nil },
		metered: true,
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// mirrorAsIfApplied mirrors inv, the compensation of the applied request
// fwd, that could not be delivered to its (down) destination. The node
// itself is recovered by wipe or local log replay, but its followers
// already hold the aborted statement's forward writes in their shadows:
// without the mirrored undo a later failover would promote rows of a
// rolled-back statement. The compensation is treated as if the destination
// had applied it in full — exactly what the destination's recovery
// converges to.
func (c *Cluster) mirrorAsIfApplied(sc *stmtScope, to int, inv, fwd any) {
	var resp any
	if ins, ok := fwd.(node.Insert); ok {
		// A delete mirrors by value and carries its rows in the response; the
		// rows the inverse of an insert removes are the ones it wrote.
		resp = node.DeleteResult{Tuples: ins.Tuples}
	}
	c.mirror(sc, to, inv, resp)
}

// deliverMirror sends one shadow write to a follower through the full
// resilient path (sequence envelope, the TID of statement sc, retries),
// absorbing every failure: the statement's outcome never depends on a
// mirror. A lost mirror to a target of the in-flight copy session breaks
// the session instead (the migration aborts, the repair round reruns). A
// dead follower is already noted down (failover covers it), and a fragment
// drop it missed is left for Recover: the shadow it names is one the
// catalog no longer has, so re-replication would not see it. Any other
// failure evicts the follower until re-replication.
func (c *Cluster) deliverMirror(sc *stmtScope, dst int, req any, tuples int) {
	if c.isDown(dst) {
		c.queueDrop(sc, dst, req)
		return
	}
	if _, err := c.resilientCall(sc, mirrored, netsim.Coordinator, dst, req); err != nil {
		c.sess.Load().mirrorFailed(dst)
		if _, down := fault.IsNodeDown(err); down || errors.Is(err, ErrDegraded) {
			// noteDown already happened inside deliver; the next statement
			// (or read) fails over around the node.
			c.queueDrop(sc, dst, req)
			return
		}
		if c.replOn() {
			c.evictFollower(dst)
		}
		return
	}
	c.rstats.RecordMirror(tuples)
}

// evictFollower marks a follower stale: it stops receiving mirrors and is
// never promoted to, until ReplicateRepair wipes and recopies its shadows.
func (c *Cluster) evictFollower(n int) {
	c.rmu.Lock()
	already := c.staleRepl[n]
	c.staleRepl[n] = true
	c.rmu.Unlock()
	if !already {
		c.rstats.RecordEviction()
	}
}

// unhealedDown lists down nodes whose slots have not been failed over yet
// (sorted).
func (c *Cluster) unhealedDown() []int {
	c.dmu.Lock()
	down := make([]int, 0, len(c.downNodes))
	for n := range c.downNodes {
		down = append(down, n)
	}
	c.dmu.Unlock()
	c.rmu.Lock()
	out := down[:0]
	for _, n := range down {
		if !c.failedOver[n] {
			out = append(out, n)
		}
	}
	c.rmu.Unlock()
	sort.Ints(out)
	return out
}

// replServesComplete reports whether the cluster, though degraded, serves
// complete reads and commits DML: replication is on and every down node's
// slots were promoted to surviving followers.
func (c *Cluster) replServesComplete() bool {
	if !c.replOn() {
		return false
	}
	c.dmu.Lock()
	anyDown := len(c.downNodes) > 0
	c.dmu.Unlock()
	if !anyDown {
		return false
	}
	return len(c.unhealedDown()) == 0
}

// heal promotes the slots of every unhealed down node to surviving
// followers. Cheap when there is nothing to do; otherwise it runs the
// failover under the global exclusive lock. Callers must not hold cluster
// locks.
func (c *Cluster) heal() error {
	if !c.replOn() || len(c.unhealedDown()) == 0 {
		return nil
	}
	h := c.lockGlobal()
	defer h.Release()
	return c.failoverLocked()
}

// shouldFailover reports whether a statement error is the kind a failover
// plus retry can cure: a node found dead or suspect mid-statement.
func (c *Cluster) shouldFailover(err error) bool {
	if !c.replOn() || err == nil {
		return false
	}
	if errors.Is(err, ErrDegraded) || errors.Is(err, ErrSuspect) {
		return true
	}
	_, down := fault.IsNodeDown(err)
	return down
}

// withFailover runs one statement, and on a node-failure error heals
// (promotes the dead node's slots) and retries. Two retries cover a
// second node failing during the first retry.
func (c *Cluster) withFailover(do func() error) error {
	err := do()
	for tries := 0; tries < 2 && c.shouldFailover(err); tries++ {
		if herr := c.heal(); herr != nil {
			return fmt.Errorf("%w (failover also failed: %v)", err, herr)
		}
		err = do()
	}
	return err
}

// failoverLocked promotes every unhealed down node's slots to their first
// live in-sync follower and publishes the resulting map. Caller holds the
// global exclusive lock.
func (c *Cluster) failoverLocked() error {
	victims := c.unhealedDown()
	if len(victims) == 0 {
		return nil
	}
	cat := c.Catalog()
	m := cat.Partitioner().Map()
	if !m.Replicated() {
		return fmt.Errorf("%w: nodes %v unavailable", ErrDegraded, victims)
	}
	vic := map[int]bool{}
	for _, v := range victims {
		vic[v] = true
	}
	c.rmu.Lock()
	stale := map[int]bool{}
	for n := range c.staleRepl {
		stale[n] = true
	}
	c.rmu.Unlock()

	nm := m.Clone()
	promoted := map[int][]int{}  // new owner -> slots it takes over
	victimSlots := map[int]int{} // victim -> slot count (stats)
	for s, o := range nm.Owner {
		if vic[o] {
			next := -1
			for _, f := range m.Repl[s] {
				if !vic[f] && !stale[f] && !c.isDown(f) {
					next = f
					break
				}
			}
			if next < 0 {
				return fmt.Errorf("%w: slot %d lost node %d and has no live in-sync replica", ErrDegraded, s, o)
			}
			nm.Owner[s] = next
			promoted[next] = append(promoted[next], s)
			victimSlots[o]++
		}
		var keep []int
		for _, f := range nm.Repl[s] {
			if !vic[f] && f != nm.Owner[s] {
				keep = append(keep, f)
			}
		}
		nm.Repl[s] = keep
	}
	nm.Epoch++

	// Move the promoted slots' data shadow→main on each new owner, fixing
	// global indexes as the base rows change identity.
	mod := len(m.Owner)
	owners := sortedKeys(promoted)
	var tuples []types.Tuple // the current table's promoted rows and their new ids
	var gs []storage.GlobalRowID
	for _, spec := range fragSpecs(cat) {
		if spec.isTable() {
			tuples, gs = nil, nil
		}
		for _, f := range owners {
			// Rows, and the victim-owned index slots, leave the follower shadow.
			resp, err := c.rawCall(f, spec.moveReq(shadowName(spec.Name), spec.Name, mod, promoted[f]))
			if err != nil {
				return fmt.Errorf("cluster: promoting %q slots at node %d: %w", spec.Name, f, err)
			}
			if spec.isTable() {
				pr := resp.(node.PromoteResult)
				tuples = append(tuples, pr.Tuples...)
				for _, row := range pr.Rows {
					gs = append(gs, storage.GlobalRowID{Node: int32(f), Row: row})
				}
			}
		}
		if !spec.GI {
			continue
		}
		// Drop every entry still pointing at a victim's rows, then
		// re-register the promoted copies. Index entries only ever
		// reference primary copies, so scrub + reinsert is complete.
		for n := 0; n < c.NumNodes(); n++ {
			if c.isDown(n) {
				continue
			}
			for _, v := range victims {
				for _, name := range []string{spec.Name, shadowName(spec.Name)} {
					if _, err := c.rawCall(n, node.GIScrubNode{GI: name, Node: v}); err != nil {
						return fmt.Errorf("cluster: scrubbing %q at node %d: %w", name, n, err)
					}
				}
			}
		}
		entries := node.GIInsertBatch{GI: spec.Name, Vals: giVals(spec, tuples), Gs: gs}
		if err := giRegister(spec, entries, nm, c.rawCall); err != nil {
			return err
		}
	}

	if err := c.publishMap(nm); err != nil {
		return err
	}
	c.rmu.Lock()
	for _, v := range victims {
		c.failedOver[v] = true
	}
	c.rmu.Unlock()
	for _, v := range victims {
		c.rstats.RecordFailover(victimSlots[v])
		if c.cfg.Durability {
			c.coordLog.Append(wal.Record{Kind: wal.KindReplFailover, Req: wal.ReplFailover{
				Node: v, Epoch: nm.Epoch, PromotedSlots: victimSlots[v],
			}})
		}
	}
	if c.cfg.Durability {
		c.coordLog.Force()
	}
	return nil
}

// ReplRepairStatus describes an in-flight ReplicateRepair round.
type ReplRepairStatus struct {
	Phase string
	// ObjectsDone / ObjectsTotal track the per-object copy progress.
	ObjectsDone, ObjectsTotal int
	// Slots counts slot-replicas the round is restoring.
	Slots int
}

// ReplicateRepair restores the cluster to full replication strength:
// every down node is restarted and wiped back to empty cataloged
// fragments, evicted (stale) followers' shadows are wiped, a deficit plan
// assigns new followers to under-replicated slots, and each cataloged
// object's rows are copied primary→shadow under that object's claim — DML
// on other objects keeps running, and writers to a copied object mirror to
// the new followers from the moment its copy completes. The new replica
// map installs at the end.
func (c *Cluster) ReplicateRepair() error {
	if !c.replOn() {
		return fmt.Errorf("cluster: ReplicateRepair requires ReplicationFactor > 1")
	}
	// Promote away any not-yet-healed failure first, so the copy sources
	// (the primaries) are all live.
	if err := c.heal(); err != nil {
		return err
	}

	// Phase A (exclusive): revive down nodes, wipe dirty shadows, plan the
	// deficit, and install the repair session.
	h, err := c.lockQuiesced()
	if err != nil {
		return err
	}
	down := c.Degraded()
	revived := map[int]bool{}
	for _, n := range down {
		if err := c.reviveNodeLocked(n); err != nil {
			h.Release()
			return err
		}
		revived[n] = true
	}
	c.rmu.Lock()
	stale := map[int]bool{}
	for n := range c.staleRepl {
		stale[n] = true
	}
	for n := range revived {
		delete(c.failedOver, n)
	}
	c.rmu.Unlock()

	nm := c.Catalog().Partitioner().Map().Clone()
	k := c.cfg.ReplicationFactor
	if nm.Repl == nil {
		nm.Repl = make([][]int, len(nm.Owner))
	}
	dirty := map[int]bool{}
	for n := range revived {
		dirty[n] = true
	}
	for n := range stale {
		dirty[n] = true
	}
	targets := map[int][]int{}
	restored := 0
	for s, o := range nm.Owner {
		have := map[int]bool{o: true}
		var keep []int
		for _, f := range nm.Repl[s] {
			if !have[f] {
				keep = append(keep, f)
				have[f] = true
			}
		}
		for j := 1; len(keep) < k-1 && j < nm.Nodes; j++ {
			cand := (o + j) % nm.Nodes
			if have[cand] || c.isRetired(cand) {
				continue
			}
			keep = append(keep, cand)
			have[cand] = true
			dirty[cand] = true
		}
		nm.Repl[s] = keep
	}
	// Every dirty node is wiped and recopied whole, so the targets are
	// planned once the dirty set is final: a live follower drafted for one
	// more slot above is dirty for the slots planned before it too.
	for s, keep := range nm.Repl {
		for _, f := range keep {
			if dirty[f] {
				targets[s] = append(targets[s], f)
				restored++
			}
		}
	}
	// Wipe the shadows of every dirty node that was not already wiped by
	// the revive, so the copy lands on empty fragments. A dirty node is
	// stale until the round ends: writers reach it only through the session,
	// structure by structure as each copy is armed (a mirror landing between
	// the wipe and the copy would be copied a second time), and a failover
	// meanwhile must not promote its half-filled shadows.
	c.rmu.Lock()
	for n := range dirty {
		c.staleRepl[n] = true
	}
	c.rmu.Unlock()
	for _, n := range sortedKeys(dirty) {
		if revived[n] {
			continue
		}
		if err := c.wipeNodeLocked(n, false); err != nil {
			h.Release()
			return err
		}
	}
	sess, err := c.beginCopy(targets)
	h.Release()
	if err != nil {
		return err
	}
	defer c.sess.CompareAndSwap(sess, nil)

	// Phase B (online): copy each object's rows to its dirty followers
	// under the object's claim, arming it before release so subsequent
	// writers mirror to the new followers too.
	for _, group := range fragGroups(c.Catalog()) {
		if err := c.copyGroup(sess, group, c.rawCall, func(int) {}); err != nil {
			return err
		}
	}

	// Phase C (exclusive): make the new followers official.
	h2 := c.lockGlobal()
	defer h2.Release()
	if d := c.Degraded(); len(d) > 0 {
		return fmt.Errorf("%w: nodes %v failed during re-replication; run ReplicateRepair again", ErrDegraded, d)
	}
	if err := c.intact(sess); err != nil {
		return fmt.Errorf("%w during re-replication; run ReplicateRepair again", err)
	}
	nm.Epoch = c.Catalog().Partitioner().Map().Epoch + 1
	if err := c.publishMap(nm); err != nil {
		return err
	}
	c.sess.Store(nil)
	c.rmu.Lock()
	for n := range dirty {
		delete(c.staleRepl, n)
	}
	c.rmu.Unlock()
	c.rstats.RecordRepair(restored)
	if c.cfg.Durability {
		c.coordLog.Append(wal.Record{Kind: wal.KindReplRepair, Req: wal.ReplRepair{
			Epoch: nm.Epoch, RepairedSlots: restored,
		}})
		c.coordLog.Force()
		// Re-image revived nodes: their pre-crash checkpoint + log no
		// longer describe the recopied state.
		for _, n := range sortedKeys(revived) {
			if _, err := c.rawDeliver(n, node.CheckpointReq{}); err != nil {
				return fmt.Errorf("cluster: checkpointing revived node %d: %w", n, err)
			}
		}
	}
	return nil
}

// reviveNodeLocked restarts one down node and wipes it back to empty
// cataloged fragments (main and shadow): its slots were promoted away at
// failover, so it owns nothing until re-replication re-adds it as a
// follower. Caller holds the global exclusive lock.
func (c *Cluster) reviveNodeLocked(n int) error {
	if c.cfg.Durability {
		// Restart from the node's own durable state and settle its
		// in-doubt transactions, so the wipe starts from a decided log.
		if _, err := c.recoverDurable(n); err != nil {
			return fmt.Errorf("cluster: reviving node %d: %w", n, err)
		}
	} else {
		if c.cfg.Faults != nil {
			c.cfg.Faults.Restart(n)
		}
		if _, err := c.rawDeliver(n, node.Ping{}); err != nil {
			return fmt.Errorf("cluster: node %d not answering, restart it first: %w", n, err)
		}
		// The wipe below empties every cataloged structure but cannot see
		// a fragment the catalog no longer names: settle the queue first.
		if err := c.drainRepairs(n, &RecoveryReport{}); err != nil {
			return err
		}
		c.dmu.Lock()
		delete(c.downNodes, n)
		delete(c.needRebuild, n)
		c.dmu.Unlock()
	}
	c.breakerReset(n)
	return c.wipeNodeLocked(n, true)
}

// wipeNodeLocked drops and recreates the shadow of every cataloged
// structure on one node, leaving it empty — and with mains, the main
// fragments, secondary indexes and global-index fragments too (a revived
// node owns nothing; an evicted-stale follower's mains hold current
// primary copies and stay).
func (c *Cluster) wipeNodeLocked(n int, mains bool) error {
	for _, spec := range fragSpecs(c.Catalog()) {
		names := []string{spec.Name, shadowName(spec.Name)}
		if !mains {
			names = names[1:]
		}
		for _, name := range names {
			// Tolerant: the node may have crashed before some shadow existed.
			_, _ = c.rawCall(n, spec.dropReq(name))
			if _, err := c.rawCall(n, spec.createReq(name, c.cfg.PageRows)); err != nil {
				return err
			}
		}
		if !mains {
			continue
		}
		for _, req := range spec.indexReqs() {
			if _, err := c.rawCall(n, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplStatus summarizes replication for Topology: whether each node is
// failed over or evicted, and repair progress.
func (c *Cluster) replStatus() (failedOver, stale []int, repair *ReplRepairStatus) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for n := range c.failedOver {
		failedOver = append(failedOver, n)
	}
	for n := range c.staleRepl {
		stale = append(stale, n)
	}
	sort.Ints(failedOver)
	sort.Ints(stale)
	if s := c.sess.Load(); s != nil && !c.MigrationActive() {
		slots := 0
		for _, fs := range s.targets {
			slots += len(fs)
		}
		s.mu.Lock()
		repair = &ReplRepairStatus{Phase: "copy", ObjectsDone: s.done, ObjectsTotal: s.total, Slots: slots}
		s.mu.Unlock()
	}
	return failedOver, stale, repair
}

// emptyRespFor synthesizes the typed empty response a failed-over node
// would give: its slots were promoted away, so it holds no rows, no index
// entries and no matches. Mutating requests acknowledge vacuously — there
// is nothing on the node for them to touch.
func emptyRespFor(req any) any {
	switch req.(type) {
	case node.AllRows, node.Scan, node.ScanWithRows, node.FindMatching, node.LocateMatch:
		return node.RowsResult{}
	case node.Probe, node.FetchJoin:
		return node.Probed{}
	case node.Insert:
		return node.InsertResult{}
	case node.DeleteRows, node.DeleteMatch:
		return node.DeleteResult{}
	case node.GIScan:
		return node.GIScanResult{}
	case node.GILookup:
		return node.GIRows{}
	case node.GILen:
		return node.GILenResult{}
	case node.GIDeleteBatch:
		return node.GIDeletedBatch{}
	case node.FragInfo:
		return node.FragInfoResult{}
	case node.PromoteSlots:
		return node.PromoteResult{}
	case node.GIScrubNode:
		return node.GIScrubbed{}
	default:
		return node.Ack{}
	}
}

package cluster

// Online cluster elasticity: AddNode/DecommissionNode on a live cluster.
//
// The partition map (internal/hashpart) is an epoch-stamped slot→node
// table; changing topology means reassigning hash slots and moving each
// reassigned slot's data — base-fragment rows, auxiliary-relation rows,
// view rows and global-index entries — from its source to its destination
// while DML keeps committing. A slot move is "add the destination as a
// follower, promote it, drop the source's copy", on the replication data
// plane (slotcopy.go, replicate.go):
//
//	copy     Per base table (then per view), under a brief shared claim
//	         that blocks only that object's writers: snapshot the
//	         migrating slots' rows out of the source fragments into the
//	         destination's follower shadows, and arm the object in the
//	         copy session before releasing the claim. From then on the
//	         live mirror (followerSink) re-applies every mutation of a
//	         moving slot at its destination inside the writing statement,
//	         exactly as it does for an installed follower.
//	cutover  Under an exclusive claim on every migrating hash range (plus
//	         the tables and views, so readers cannot observe the move):
//	         promote the moving slots shadow → primary at the
//	         destinations (node-local) and publish the catalog with the
//	         new partition map, epoch bumped (every compiled maintenance
//	         plan belongs to the old catalog and recompiles).
//	cleanup  Still under the claims: demote or delete the sources' copies,
//	         and re-register the moved base rows' global-index entries
//	         under their new row ids.
//
// This file is what is migration's own: planning the moves, the phase
// protocol, its WAL records and its recovery.
//
// Every transition is logged to the coordinator's WAL. The commit point
// is the cutover's map install: a start record without a commit record
// means the migration never happened (presumed abort), and
// ResumeMigrations scrubs whatever the destinations' shadows received. The
// fault injector's migration-phase triggers (fault.CrashAtPhase,
// fault.FailAtPhase) land node crashes and coordinator failures exactly
// at these boundaries.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"joinview/internal/fault"
	"joinview/internal/hashpart"
	"joinview/internal/lockmgr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// ErrMigration marks operations refused because a migration is in flight
// (DDL, a second migration) or failed mid-flight.
var ErrMigration = errors.New("cluster: migration")

// migMove is one hash slot's relocation.
type migMove struct {
	Src, Dst int
}

// MigrationStats is the cost accounting of one migration.
type MigrationStats struct {
	// ID is the migration's cluster-unique id; Epoch the partition-map
	// epoch it installed (0 if aborted).
	ID    uint64
	Epoch uint64
	// Slots lists the hash slots that moved; Dsts the distinct
	// destination nodes.
	Slots []int
	Dsts  []int
	// RowsCopied counts tuples and global-index entries shipped during
	// the snapshot phase; PagesCopied their page-grained I/O equivalent
	// (snapshot reads at the sources + shadow writes at the destinations;
	// the cutover's promotion is node-local and ships nothing).
	RowsCopied  int64
	PagesCopied int64
	// Envelopes counts the transport deliveries the migration itself
	// issued (snapshot, cutover and cleanup traffic). Writes mirrored to
	// the destinations while it ran are part of their statements' cost.
	Envelopes int64
	// CutoverStall is how long the exclusive cutover window lasted — the
	// only time concurrent DML is blocked cluster-wide.
	CutoverStall time.Duration
	// Elapsed is the whole migration's wall-clock time.
	Elapsed time.Duration
	// Committed reports whether the new map was installed.
	Committed bool
}

// MigrationStatus describes an in-flight migration for Topology.
type MigrationStatus struct {
	ID    uint64
	Phase string
	Slots []int
	Dsts  []int
}

// Topology reports the cluster's partition map and elasticity state.
type Topology struct {
	// Epoch is the installed partition map's version.
	Epoch uint64
	// Nodes is the current node count; SlotOwner maps hash slot → node.
	Nodes     int
	SlotOwner []int
	// Retired lists decommissioned nodes (addressable, but owning no
	// slots).
	Retired []int
	// InFlight is the active migration, nil when idle.
	InFlight *MigrationStatus
	// ReplicationFactor is the configured replica count K (1 = no
	// replication); Replicas maps hash slot → follower nodes (nil at K=1).
	ReplicationFactor int
	Replicas          [][]int
	// NodeStatus maps node → liveness: "up", "suspect" (circuit breaker
	// open), "down" (unreachable, slots not yet promoted), "failed-over"
	// (down with slots promoted to followers) or "stale" (live but evicted
	// from its replica sets until the next repair).
	NodeStatus []string
	// Repair is the in-flight re-replication round, nil when idle.
	Repair *ReplRepairStatus
}

// migShadow names one structure whose follower shadow exists at the
// destinations only for the migration's duration (replication off), for
// the WAL record and cleanup.
type migShadow struct {
	Name string
	GI   bool
}

// migration is the coordinator-side state of one in-flight migration.
type migration struct {
	id uint64
	// routing is the map in force while the migration runs (data still at
	// the sources); target is the map installed at cutover. Both have the
	// same slot count, so slot identity is stable.
	routing hashpart.Map
	target  hashpart.Map
	moves   map[int]migMove
	dsts    []int
	// sess is the copy session keeping the destinations' shadows current;
	// shadows lists the ones to drop afterwards.
	sess    *copySession
	shadows []migShadow

	mu    sync.Mutex
	phase string

	stats MigrationStats
	start time.Time
}

// Migration WAL records (carried in the coordinator log's Req payloads).
type migStartRec struct {
	ID      uint64
	Moves   map[int]migMove
	Target  hashpart.Map
	Shadows []migShadow
}
type migPhaseRec struct {
	ID    uint64
	Phase string
}
type migCommitRec struct{ ID uint64 }
type migAbortRec struct{ ID uint64 }

// migCleanupRec records that the post-commit cleanup (source-copy scrub,
// index re-registration, shadow drops) completed; a commit record without one means
// ResumeMigrations must roll the cleanup forward.
type migCleanupRec struct{ ID uint64 }

// MigrationActive reports whether a migration is in flight.
func (c *Cluster) MigrationActive() bool {
	c.migMu.RLock()
	defer c.migMu.RUnlock()
	return c.mig != nil
}

// LastMigration returns the most recent migration's cost accounting.
func (c *Cluster) LastMigration() (MigrationStats, bool) {
	c.migMu.RLock()
	defer c.migMu.RUnlock()
	if c.lastMig == nil {
		return MigrationStats{}, false
	}
	return *c.lastMig, true
}

// Topology reports the partition map, retired nodes and any in-flight
// migration.
func (c *Cluster) Topology() Topology {
	m := c.Catalog().Partitioner().Map()
	t := Topology{
		Epoch:             m.Epoch,
		Nodes:             c.NumNodes(),
		SlotOwner:         append([]int(nil), m.Owner...),
		ReplicationFactor: c.cfg.ReplicationFactor,
	}
	if t.ReplicationFactor < 1 {
		t.ReplicationFactor = 1
	}
	if m.Replicated() {
		t.Replicas = make([][]int, len(m.Repl))
		for s, fs := range m.Repl {
			t.Replicas[s] = append([]int(nil), fs...)
		}
	}
	failedOver, stale, repairing := c.replStatus()
	t.Repair = repairing
	suspect := map[int]bool{}
	for _, n := range c.Suspect() {
		suspect[n] = true
	}
	fo := map[int]bool{}
	for _, n := range failedOver {
		fo[n] = true
	}
	st := map[int]bool{}
	for _, n := range stale {
		st[n] = true
	}
	t.NodeStatus = make([]string, t.Nodes)
	for n := 0; n < t.Nodes; n++ {
		switch {
		case fo[n]:
			t.NodeStatus[n] = "failed-over"
		case c.isDown(n):
			t.NodeStatus[n] = "down"
		case st[n]:
			t.NodeStatus[n] = "stale"
		case suspect[n]:
			t.NodeStatus[n] = "suspect"
		default:
			t.NodeStatus[n] = "up"
		}
	}
	c.migMu.RLock()
	for n := range c.retired {
		t.Retired = append(t.Retired, n)
	}
	sort.Ints(t.Retired)
	if mig := c.mig; mig != nil {
		mig.mu.Lock()
		t.InFlight = &MigrationStatus{
			ID:    mig.id,
			Phase: mig.phase,
			Slots: sortedKeys(mig.moves),
			Dsts:  append([]int(nil), mig.dsts...),
		}
		mig.mu.Unlock()
	}
	c.migMu.RUnlock()
	return t
}

// failIfMigrating refuses catalog-shape changes while data is in flight:
// a fragment created mid-migration would miss its snapshot copy.
func (c *Cluster) failIfMigrating() error {
	if c.MigrationActive() {
		return fmt.Errorf("%w in flight: retry after it completes", ErrMigration)
	}
	return nil
}

// migRangeClaims returns one claim per in-flight hash range, in the given
// mode. DML statements take them shared; the cutover takes them
// exclusive, so the map install cannot slide under a statement mid-flight
// against the moving data. Idle clusters pay one atomic load.
func (c *Cluster) migRangeClaims(mode func(string) lockmgr.Claim) []lockmgr.Claim {
	c.migMu.RLock()
	m := c.mig
	c.migMu.RUnlock()
	if m == nil {
		return nil
	}
	claims := make([]lockmgr.Claim, 0, len(m.moves))
	for _, s := range sortedKeys(m.moves) {
		claims = append(claims, mode(migRangeRes(s)))
	}
	return claims
}

func migRangeRes(slot int) string { return fmt.Sprintf("mig:slot:%d", slot) }

// AddNode grows the cluster by one data-server node: it provisions the
// node (transport inbox, empty fragments of every cataloged object),
// installs a slot-doubled map when the slot table is too coarse, then
// live-migrates a proportional share of hash slots to the new node while
// DML continues. It returns the new node's id; on a migration error the
// node exists but owns no slots — RebalanceNode(id) retries the data
// movement.
func (c *Cluster) AddNode() (int, error) {
	dst, err := c.provisionNode()
	if err != nil {
		return -1, err
	}
	return dst, c.RebalanceNode(dst)
}

// provisionNode creates and wires a new empty node under the global
// exclusive lock.
func (c *Cluster) provisionNode() (int, error) {
	h := c.lockGlobal()
	defer h.Release()
	if err := c.failIfDegraded(); err != nil {
		return -1, err
	}
	if err := c.failIfMigrating(); err != nil {
		return -1, err
	}
	dst := c.NumNodes()
	dn := node.New(dst, 0)
	if c.cfg.BufferPages > 0 {
		dn.SetBufferPages(c.cfg.BufferPages)
	}
	if c.cfg.Durability {
		dn.EnableDurability(c.cfg.PageRows, c.cfg.CheckpointEvery)
	}
	if _, err := c.net.AddNode(dn.Handler()); err != nil {
		return -1, err
	}
	c.nmu.Lock()
	c.nodes = append(c.nodes, dn)
	c.nmu.Unlock()
	c.nNodes.Store(int32(dst + 1))

	// Empty fragments of every cataloged object (and, under replication,
	// their shadows), so broadcasts, gathers and checkpoints uniformly
	// include the new node from here on.
	cat := c.Catalog()
	for _, spec := range fragSpecs(cat) {
		reqs := append([]any{spec.createReq(spec.Name, c.cfg.PageRows)}, spec.indexReqs()...)
		if c.replOn() {
			reqs = append(reqs, spec.createReq(shadowName(spec.Name), c.cfg.PageRows))
		}
		for _, req := range reqs {
			if _, err := c.rawCall(dst, req); err != nil {
				return dst, err
			}
		}
	}

	// Refine the slot table so the new node's share is expressible, then
	// publish it: owners are repeated, so routing is unchanged — only the
	// epoch moves (compiled plans recompile against identical routing).
	m := cat.Partitioner().Map()
	for len(m.Owner) < 2*(dst+1) {
		repl := m.Clone().Repl
		m = m.Doubled()
		if repl != nil {
			m.Repl = append(m.Repl, repl...) // slot s+len shares s's followers too
		}
	}
	m.Nodes = dst + 1
	m.Epoch++
	return dst, c.publishMap(m)
}

// RebalanceNode live-migrates a proportional share of hash slots to the
// given (typically just-added, slot-less) node. Shares are stolen from
// the most-loaded owners. Rebalancing onto a decommissioned node returns
// it to service.
func (c *Cluster) RebalanceNode(dst int) error {
	cur := c.Catalog().Partitioner().Map()
	if dst < 0 || dst >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", dst, c.NumNodes())
	}
	c.migMu.Lock()
	delete(c.retired, dst)
	c.migMu.Unlock()
	active := c.NumNodes() - c.numRetired()
	want := (len(cur.Owner) + active/2) / active
	if want < 1 {
		want = 1
	}
	moves := map[int]migMove{}
	target := cur.Clone()
	for len(target.SlotsOwnedBy(dst)) < want {
		heavy, slots := -1, 0
		for n := 0; n < target.Nodes; n++ {
			if n == dst {
				continue
			}
			if owned := len(target.SlotsOwnedBy(n)); owned > slots {
				heavy, slots = n, owned
			}
		}
		if heavy < 0 || slots <= len(target.SlotsOwnedBy(dst))+1 {
			break // nothing meaningfully heavier to steal from
		}
		s := target.SlotsOwnedBy(heavy)[0]
		moves[s] = migMove{Src: heavy, Dst: dst}
		reassign(target, s, dst, true)
	}
	if len(moves) == 0 {
		return nil
	}
	target.Epoch = cur.Epoch + 1
	return c.migrate(cur, target, moves)
}

// reassign makes dst the owner of slot s in the map being planned. The
// slot's followers stay; a destination that already follows the slot swaps
// roles with the owner (its shadow is promoted, nothing is copied) —
// unless the owner is leaving (demote false), which leaves the slot one
// follower short for the re-replication deficit plan.
func reassign(target hashpart.Map, s, dst int, demote bool) {
	src := target.Owner[s]
	target.Owner[s] = dst
	if !containsInt(target.Followers(s), dst) {
		return
	}
	target.Repl[s] = without(target.Repl[s], dst)
	if demote {
		target.Repl[s] = append(target.Repl[s], src)
	}
}

// without returns xs minus v, as a fresh slice.
func without(xs []int, v int) []int {
	var out []int
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// DecommissionNode drains a node: every hash slot it owns is
// live-migrated to the least-loaded surviving nodes, after which the node
// is marked retired — still addressable (its empty fragments keep
// broadcasts uniform) but owning no data. The node can then be taken
// down without degrading the cluster. Under replication the node also
// leaves every replica set it was in, and a re-replication round
// (ReplicateRepair's deficit plan) copies replacements onto the survivors.
func (c *Cluster) DecommissionNode(n int) error {
	cur := c.Catalog().Partitioner().Map()
	if n < 0 || n >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	survivors := c.NumNodes() - c.numRetired()
	if !c.isRetired(n) {
		survivors--
	}
	if survivors < 1 && len(cur.SlotsOwnedBy(n)) > 0 {
		return fmt.Errorf("cluster: cannot decommission the last active node")
	}
	if c.replOn() && survivors < c.cfg.ReplicationFactor {
		return fmt.Errorf("cluster: decommissioning node %d would leave %d active nodes for ReplicationFactor %d",
			n, survivors, c.cfg.ReplicationFactor)
	}
	target := cur.Clone()
	moves := map[int]migMove{}
	for _, s := range cur.SlotsOwnedBy(n) {
		light, slots := -1, int(^uint(0)>>1)
		for d := 0; d < target.Nodes; d++ {
			if d == n || c.isRetired(d) {
				continue
			}
			if owned := len(target.SlotsOwnedBy(d)); owned < slots {
				light, slots = d, owned
			}
		}
		if light < 0 {
			return fmt.Errorf("cluster: no surviving node to drain node %d to", n)
		}
		moves[s] = migMove{Src: n, Dst: light}
		reassign(target, s, light, false)
	}
	changed := len(moves) > 0
	for s, fs := range target.Repl {
		if containsInt(fs, n) {
			target.Repl[s] = without(fs, n)
			changed = true
		}
	}
	if changed {
		target.Epoch = cur.Epoch + 1
		if err := c.migrate(cur, target, moves); err != nil {
			return err
		}
	}
	c.migMu.Lock()
	c.retired[n] = true
	c.migMu.Unlock()
	if changed && c.replOn() {
		return c.ReplicateRepair()
	}
	return nil
}

func (c *Cluster) numRetired() int {
	c.migMu.RLock()
	defer c.migMu.RUnlock()
	return len(c.retired)
}

func (c *Cluster) isRetired(n int) bool {
	c.migMu.RLock()
	defer c.migMu.RUnlock()
	return c.retired[n]
}

// migrate runs the live migration from the routing map to the target map:
// the given slot moves plus, under replication, whatever follower changes
// the target carries.
func (c *Cluster) migrate(routing, target hashpart.Map, moves map[int]migMove) error {
	if down := c.Degraded(); len(down) > 0 {
		return fmt.Errorf("%w: nodes %v unavailable: recover them before changing topology", ErrDegraded, down)
	}
	m := &migration{
		id:      c.migSeq.Add(1),
		routing: routing,
		target:  target,
		moves:   moves,
		start:   time.Now(),
	}
	// A destination that does not follow its slot yet needs a copy; one
	// that does is in sync already — unless it was evicted.
	targets := map[int][]int{}
	for s, mv := range moves {
		if !containsInt(routing.Followers(s), mv.Dst) {
			targets[s] = []int{mv.Dst}
		}
	}
	m.dsts = moveDsts(moves)
	m.stats = MigrationStats{ID: m.id, Slots: sortedKeys(moves), Dsts: m.dsts}
	if err := c.failIfStale(m.dsts); err != nil {
		return err
	}
	// Without replication the destinations' shadows live only as long as
	// the migration; naming them all up front makes the WAL start record a
	// complete cleanup manifest even if the coordinator dies mid-copy.
	if !c.replOn() {
		for _, spec := range fragSpecs(c.Catalog()) {
			m.shadows = append(m.shadows, migShadow{Name: spec.Name, GI: spec.GI})
		}
	}

	// Register the migration: from here on DML takes shared claims on the
	// moving ranges and DDL is refused.
	c.migMu.Lock()
	if c.mig != nil {
		c.migMu.Unlock()
		return fmt.Errorf("%w already in flight", ErrMigration)
	}
	var err error
	if m.sess, err = c.beginCopy(targets); err != nil {
		c.migMu.Unlock()
		return err
	}
	c.mig = m
	c.migMu.Unlock()

	c.migLog(migStartRec{ID: m.id, Moves: moves, Target: target, Shadows: m.shadows}, true)
	err = c.runMigration(m)
	c.finishMigration(m)
	switch {
	case err == nil:
		return nil
	case m.stats.Committed:
		// The target map is installed — the migration happened; only the
		// post-commit cleanup is unfinished. Roll forward, never back.
		return fmt.Errorf("%w %d committed but cleanup pending (%v): run ResumeMigrations", ErrMigration, m.id, err)
	}
	if rerr := c.abortMigration(m, err); rerr != nil {
		return fmt.Errorf("%w %d failed (%w) but rollback pending (%v): run ResumeMigrations", ErrMigration, m.id, err, rerr)
	}
	return fmt.Errorf("%w %d aborted: %w", ErrMigration, m.id, err)
}

// failIfStale refuses to promote an evicted follower: its shadow may have
// missed writes.
func (c *Cluster) failIfStale(dsts []int) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for _, d := range dsts {
		if c.staleRepl[d] {
			return fmt.Errorf("%w: destination node %d is an evicted follower: run ReplicateRepair first", ErrMigration, d)
		}
	}
	return nil
}

// finishMigration stops the mirror, deregisters the migration and
// publishes its stats.
func (c *Cluster) finishMigration(m *migration) {
	c.sess.CompareAndSwap(m.sess, nil)
	m.mu.Lock()
	m.stats.Elapsed = time.Since(m.start)
	stats := m.stats
	m.mu.Unlock()
	c.migMu.Lock()
	c.mig = nil
	c.lastMig = &stats
	c.migMu.Unlock()
}

// setPhase records the phase and announces it to the fault injector,
// whose armed triggers may crash a node here — or fail the coordinator
// itself (returning ErrPhaseFail), which aborts the migration without
// cleanup; ResumeMigrations later rolls it back from the WAL manifest.
func (c *Cluster) setPhase(m *migration, phase string) error {
	m.mu.Lock()
	m.phase = phase
	m.mu.Unlock()
	c.migLog(migPhaseRec{ID: m.id, Phase: phase}, false)
	return c.cfg.Faults.Phase(phase)
}

// migLog appends a migration record to the coordinator's WAL.
func (c *Cluster) migLog(rec any, force bool) {
	kind := wal.KindRedo
	switch rec.(type) {
	case migCommitRec:
		kind = wal.KindCommit
	case migAbortRec:
		kind = wal.KindAbort
	}
	c.coordLog.Append(wal.Record{Kind: kind, Req: rec})
	if force {
		c.coordLog.Force()
	}
}

// migCaller returns the migration's delivery function: rawCall, counted
// in the stats.
func (c *Cluster) migCaller(m *migration) func(to int, req any) (any, error) {
	return func(to int, req any) (any, error) {
		m.mu.Lock()
		m.stats.Envelopes++
		m.mu.Unlock()
		return c.rawCall(to, req)
	}
}

// runMigration executes the phases.
func (c *Cluster) runMigration(m *migration) error {
	call := c.migCaller(m)
	shipped := func(elems int) {
		m.mu.Lock()
		m.stats.RowsCopied += int64(elems)
		m.stats.PagesCopied += 2 * c.pageCount(elems) // read at src + write at dst
		m.mu.Unlock()
	}
	// Snapshot copy, object by object, arming the live mirror.
	for _, group := range fragGroups(c.Catalog()) {
		if err := c.setPhase(m, "copy:"+group[0].Owner); err != nil {
			return err
		}
		if !c.replOn() {
			for _, d := range m.dsts {
				for _, spec := range group {
					if _, err := call(d, spec.createReq(shadowName(spec.Name), c.cfg.PageRows)); err != nil {
						return err
					}
				}
			}
		}
		if err := c.copyGroup(m.sess, group, call, shipped); err != nil {
			return err
		}
	}
	return c.cutover(m, call)
}

// cutover is the migration's commit: under exclusive claims on every
// moving hash range plus every table and view (so no statement or locked
// read can observe the move), it promotes the moving slots at their
// destinations, publishes the target map, and cleans up behind it.
//
// Crash-safety shape: everything BEFORE the map install is additive —
// destinations gain redundant copies while the sources stay authoritative
// and intact, so an abort only re-homes the destinations' residue.
// Everything AFTER the install removes or demotes the now-stale source
// copies and re-registers global-index entries, and rolls forward: a
// commit record without a cleanup record makes ResumeMigrations redo it.
func (c *Cluster) cutover(m *migration, call func(to int, req any) (any, error)) error {
	if err := c.setPhase(m, "cutover"); err != nil {
		return err
	}
	var h *lockmgr.Held
	if !c.net.Concurrent() {
		h = c.lockGlobal()
	} else {
		h = c.lm.AcquireShared()
		var claims []lockmgr.Claim
		claims = append(claims, c.migRangeClaims(lockmgr.X)...)
		for _, group := range fragGroups(c.Catalog()) {
			claims = append(claims, lockmgr.X(group[0].Owner))
		}
		h.Lock(claims...)
		// MVCC snapshot readers hold no table claims, so the exclusive
		// claims above do not fence them; the read fence does. Taken after
		// the claims (readers never acquire claims, so the order is
		// acyclic) and released with them.
		c.readFence.Lock()
		defer c.readFence.Unlock()
	}
	defer h.Release()
	stallStart := time.Now()

	// Nothing else can arrive while the claims are held: the destinations
	// are as current as they will get. They must be complete, and the map
	// the moves were planned on must still be the installed one (a failover
	// replaces it). Then stop the mirror.
	if err := c.intact(m.sess); err != nil {
		return err
	}
	if err := c.failIfStale(m.dsts); err != nil {
		return err
	}
	cat := c.Catalog()
	if e := cat.Partitioner().Map().Epoch; e != m.routing.Epoch {
		return fmt.Errorf("cluster: partition map moved to epoch %d under the migration", e)
	}
	c.sess.CompareAndSwap(m.sess, nil)

	// Promote shadow → primary at every destination. For tables with
	// global indexes, also note the moved rows' old (source) and new
	// (destination) row ids for the entry re-registration.
	type movedRows struct {
		gis            []fragSpec
		oldT, newT     []types.Tuple
		oldIDs, newIDs []storage.GlobalRowID
	}
	var fixups []movedRows
	mod := len(m.routing.Owner)
	arriving := map[int][]int{}
	for _, s := range sortedKeys(m.moves) {
		arriving[m.moves[s].Dst] = append(arriving[m.moves[s].Dst], s)
	}
	for _, group := range fragGroups(cat) {
		fix := movedRows{gis: giSpecs(group)}
		for _, spec := range group {
			needRows := spec.isTable() && len(fix.gis) > 0
			if needRows {
				for _, src := range m.srcNodes() {
					resp, err := call(src, spec.scanReq(spec.Name))
					if err != nil {
						return err
					}
					rr := resp.(node.RowsResult)
					for i, tup := range rr.Tuples {
						if mv, ok := m.moves[m.routing.Slot(tup[spec.PartIdx])]; ok && mv.Src == src {
							fix.oldT = append(fix.oldT, tup)
							fix.oldIDs = append(fix.oldIDs, storage.GlobalRowID{Node: int32(src), Row: rr.Rows[i]})
						}
					}
				}
			}
			for _, d := range m.dsts {
				resp, err := call(d, spec.moveReq(shadowName(spec.Name), spec.Name, mod, arriving[d]))
				if err != nil {
					return err
				}
				if needRows {
					pr := resp.(node.PromoteResult)
					fix.newT = append(fix.newT, pr.Tuples...)
					for _, row := range pr.Rows {
						fix.newIDs = append(fix.newIDs, storage.GlobalRowID{Node: int32(d), Row: row})
					}
				}
			}
		}
		if len(fix.oldT)+len(fix.newT) > 0 {
			fixups = append(fixups, fix)
		}
	}

	// Commit point: publish the target map. Plan-cache entries recompile
	// against the new catalog; new statements route to the new homes.
	if err := c.publishMap(m.target); err != nil {
		return err
	}
	c.migLog(migCommitRec{ID: m.id}, true)
	m.mu.Lock()
	m.stats.Epoch = m.target.Epoch
	m.stats.Committed = true
	m.mu.Unlock()

	// Post-commit cleanup (roll-forward on failure): the sources' copies of
	// the moved slots are demoted or deleted, then every moved base row —
	// which got a fresh row id at its destination — has its (value,
	// global-row-id) index entries replaced wherever the target map keeps
	// a copy of the value's slot.
	if err := c.setPhase(m, "cleanup"); err != nil {
		return err
	}
	if err := c.rehome(call, c.nodeIDs()); err != nil {
		return err
	}
	for _, fix := range fixups {
		for _, gi := range fix.gis {
			del := node.GIDeleteBatch{GI: gi.Name, Vals: giVals(gi, fix.oldT), Gs: fix.oldIDs}
			if err := giRegister(gi, del, m.target, call); err != nil {
				return err
			}
			ins := node.GIInsertBatch{GI: gi.Name, Vals: giVals(gi, fix.newT), Gs: fix.newIDs}
			if err := giRegister(gi, ins, m.target, call); err != nil {
				return err
			}
		}
	}
	_ = c.dropShadows(m.dsts, m.shadows)
	c.migLog(migCleanupRec{ID: m.id}, true)

	m.mu.Lock()
	m.stats.CutoverStall = time.Since(stallStart)
	m.mu.Unlock()
	return c.cfg.Faults.Phase("done")
}

// nodeIDs lists every node, ascending.
func (c *Cluster) nodeIDs() []int {
	nodes := make([]int, c.NumNodes())
	for n := range nodes {
		nodes[n] = n
	}
	return nodes
}

// moveDsts lists the distinct destination nodes of a set of moves.
func moveDsts(moves map[int]migMove) []int {
	set := map[int]bool{}
	for _, mv := range moves {
		set[mv.Dst] = true
	}
	return sortedKeys(set)
}

// srcNodes lists the distinct source nodes of the migration's moves.
func (m *migration) srcNodes() []int {
	set := map[int]bool{}
	for _, mv := range m.moves {
		set[mv.Src] = true
	}
	return sortedKeys(set)
}

// rehome makes the listed nodes' copies agree with the installed partition
// map: an element in a primary fragment whose slot the node now only
// follows moves to the shadow, one it neither owns nor follows is deleted,
// and so is a shadow element of a slot the node does not follow. In a
// healthy cluster nothing is misplaced; after a cutover's map install
// exactly the moved slots' source copies are, and before it exactly what
// the destinations received. Idempotent, so ResumeMigrations can redo it.
// Callers hold either the cutover claims or the global lock.
func (c *Cluster) rehome(call func(to int, req any) (any, error), nodes []int) error {
	cat := c.Catalog()
	pm, specs := cat.Partitioner().Map(), fragSpecs(cat)
	for _, n := range nodes {
		var follows []int
		for s, fs := range pm.Repl {
			if containsInt(fs, n) {
				follows = append(follows, s)
			}
		}
		for _, spec := range specs {
			if c.replOn() {
				if _, err := call(n, spec.moveReq(spec.Name, shadowName(spec.Name), len(pm.Owner), follows)); err != nil {
					return err
				}
				notFollowed := func(v types.Value) bool { return !containsInt(pm.Followers(pm.Slot(v)), n) }
				if err := scrubWhere(call, spec, shadowName(spec.Name), n, notFollowed); err != nil {
					return err
				}
			}
			notOwned := func(v types.Value) bool { return pm.NodeFor(v) != n }
			if err := scrubWhere(call, spec, spec.Name, n, notOwned); err != nil {
				return err
			}
		}
	}
	return nil
}

// scrubWhere deletes from node n's copy of one structure called name every
// element whose partition value is doomed.
func scrubWhere(call func(to int, req any) (any, error), spec fragSpec, name string, n int, doomed func(types.Value) bool) error {
	resp, err := call(n, spec.scanReq(name))
	if err != nil {
		return err
	}
	var del any
	if spec.GI {
		sc, d := resp.(node.GIScanResult), node.GIDeleteBatch{GI: name}
		for i, v := range sc.Vals {
			if doomed(v) {
				d.Vals, d.Gs = append(d.Vals, v), append(d.Gs, sc.Gs[i])
			}
		}
		if len(d.Vals) > 0 {
			del = d
		}
	} else {
		rr, d := resp.(node.RowsResult), node.DeleteRows{Frag: name}
		for i, tup := range rr.Tuples {
			if doomed(tup[spec.PartIdx]) {
				d.Rows = append(d.Rows, rr.Rows[i])
			}
		}
		if len(d.Rows) > 0 {
			del = d
		}
	}
	if del == nil {
		return nil
	}
	_, err = call(n, del)
	return err
}

// abortMigration rolls a failed migration back presumed-abort style:
// before the commit point the sources stay authoritative, so aborting
// re-homes the destinations' residue (what their shadows received and,
// if the cutover got that far, what it promoted). A coordinator failure
// injected at a phase boundary (fault.ErrPhaseFail) skips the rollback —
// exactly what a dead coordinator would leave behind — and
// ResumeMigrations performs it from the WAL manifest instead. The same
// happens if the rollback itself fails (a node is down): the migration
// stays undecided in the log until ResumeMigrations succeeds, and the
// error says so.
func (c *Cluster) abortMigration(m *migration, cause error) error {
	if errors.Is(cause, fault.ErrPhaseFail) {
		return nil
	}
	h := c.lockGlobal()
	defer h.Release()
	if err := c.rollbackLocked(m.dsts, m.shadows); err != nil {
		return err
	}
	c.migLog(migAbortRec{ID: m.id}, true)
	return nil
}

// rollbackLocked undoes an uncommitted migration's destination-side work:
// under the still-installed routing map everything the destinations
// received is misplaced (and what the cutover promoted out of an installed
// follower's shadow belongs back in it), so re-homing them is the whole
// rollback; then the temporary shadows go. Caller holds the global lock.
func (c *Cluster) rollbackLocked(dsts []int, shadows []migShadow) error {
	if err := c.rehome(c.rawCall, dsts); err != nil {
		return err
	}
	return c.dropShadows(dsts, shadows)
}

// dropShadows removes the migration-only shadows at the destinations,
// tolerating never-created ones (cleanup is idempotent) and reporting the
// first unreachable node: an abort with a dead destination stays undecided
// for ResumeMigrations, while the post-commit cleanup ignores the error
// and lets the roll-forward retry.
func (c *Cluster) dropShadows(dsts []int, shadows []migShadow) error {
	var firstErr error
	for _, d := range dsts {
		for _, sh := range shadows {
			req := fragSpec{GI: sh.GI}.dropReq(shadowName(sh.Name))
			if _, err := c.rawCall(d, req); err != nil && !errors.Is(err, node.ErrNoFragment) && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// rebuildGIs reconstructs every global-index fragment, and under
// replication its follower shadows, from the base tables: the roll-forward
// of a cleanup that may have stopped halfway through re-registering moved
// rows. Caller holds the global lock.
func (c *Cluster) rebuildGIs() error {
	cat := c.Catalog()
	pm, nodes := cat.Partitioner().Map(), c.nodeIDs()
	followers := slotSink{
		route: func(v types.Value, out []int) []int { return append(out, pm.Followers(pm.Slot(v))...) },
		name:  shadowName,
		deliver: func(f int, req any, _ int) error {
			_, err := c.rawCall(f, req)
			return err
		},
	}
	for _, gi := range fragSpecs(cat) {
		if !gi.GI {
			continue
		}
		for _, n := range nodes {
			if _, err := c.rebuildGIFrag(cat, gi, n); err != nil {
				return err
			}
		}
		if !c.replOn() {
			continue
		}
		for _, n := range nodes {
			for _, req := range []any{gi.dropReq(shadowName(gi.Name)), gi.createReq(shadowName(gi.Name), c.cfg.PageRows)} {
				if _, err := c.rawCall(n, req); err != nil {
					return err
				}
			}
		}
		if err := copySlots(gi, nodes, c.rawCall, followers); err != nil {
			return err
		}
	}
	return nil
}

// ResumeMigrations recovers the elasticity state after a coordinator
// failure: every migration in the WAL is driven to a decision.
//
//   - commit + cleanup records: finished, nothing to do.
//   - commit without cleanup: the target map is installed but stale source
//     copies and index entries may remain — roll forward by re-running the
//     (idempotent) re-homing, rebuilding the global indexes and dropping
//     the migration's shadows.
//   - start without commit: presumed abort — roll back the destinations'
//     residue and drop the shadows named in the start record's manifest.
//
// Call it after recovering crashed nodes; it needs every node reachable.
func (c *Cluster) ResumeMigrations() error {
	h := c.lockGlobal()
	defer h.Release()
	return c.resumeMigrationsLocked()
}

// resumeMigrationsLocked is ResumeMigrations with the global lock already
// held — recovery calls it before rebuilding derived fragments, which
// must not run while base tables still hold a dead migration's stale
// copies.
func (c *Cluster) resumeMigrationsLocked() error {
	// Whatever in-memory migration state survived the failure is stale.
	c.migMu.Lock()
	if c.mig != nil {
		c.sess.CompareAndSwap(c.mig.sess, nil)
		c.mig = nil
	}
	c.migMu.Unlock()

	committed := map[uint64]bool{}
	cleaned := map[uint64]bool{}
	aborted := map[uint64]bool{}
	var starts []migStartRec
	for _, rec := range c.coordLog.All() {
		switch r := rec.Req.(type) {
		case migCommitRec:
			committed[r.ID] = true
		case migCleanupRec:
			cleaned[r.ID] = true
		case migAbortRec:
			aborted[r.ID] = true
		case migStartRec:
			starts = append(starts, r)
		}
	}
	for _, start := range starts {
		dsts := moveDsts(start.Moves)
		switch {
		case aborted[start.ID] || (committed[start.ID] && cleaned[start.ID]):
			continue
		case committed[start.ID]:
			err := c.rehome(c.rawCall, c.nodeIDs())
			if err == nil {
				err = c.rebuildGIs()
			}
			if err == nil {
				err = c.dropShadows(dsts, start.Shadows)
			}
			if err != nil {
				return fmt.Errorf("%w %d: roll-forward cleanup: %w", ErrMigration, start.ID, err)
			}
			c.migLog(migCleanupRec{ID: start.ID}, true)
		default:
			if err := c.rollbackLocked(dsts, start.Shadows); err != nil {
				return fmt.Errorf("%w %d: rollback: %w", ErrMigration, start.ID, err)
			}
			c.migLog(migAbortRec{ID: start.ID}, true)
		}
	}
	return nil
}

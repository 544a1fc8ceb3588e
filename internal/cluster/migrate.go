package cluster

// Online cluster elasticity: AddNode/DecommissionNode on a live cluster.
//
// The partition map (internal/hashpart) is an epoch-stamped slot→node
// table; changing topology means reassigning hash slots and moving each
// reassigned slot's data — base-fragment rows, auxiliary-relation rows,
// view rows and global-index entries — from its source to its destination
// while DML keeps committing. Each migration runs in three phases:
//
//	copy     Per base table (then per view), under a brief shared claim
//	         that blocks only that object's writers: snapshot the
//	         migrating slots' rows out of the source fragments into
//	         staging fragments at the destination, and arm a "tap" on the
//	         fragment before releasing the claim. From then on every
//	         mutation the coordinator delivers against migrating data is
//	         mirrored — value-filtered, rewritten to the staging names —
//	         into the delta catch-up queue.
//	catchup  Replay the queue against the staging fragments in batches
//	         while DML continues to run (and continues to enqueue).
//	cutover  Under an exclusive claim on every migrating hash range (plus
//	         the tables and views, so readers cannot observe the move):
//	         drain the queue, merge staging into the real fragments at
//	         the destinations, delete the moved rows at the sources, fix
//	         up global-index entries that referenced moved base rows, and
//	         atomically install the new partition map with an epoch bump
//	         (which invalidates every compiled maintenance plan).
//
// The data movement itself — the catalog walk, the snapshot copy and the
// live mirror — is shared with replication (slotcopy.go); this file is the
// phase protocol around it.
//
// Every transition is logged to the coordinator's WAL. The commit point
// is the cutover's map install: a start record without a commit record
// means the migration never happened (presumed abort), and
// ResumeMigrations drops whatever staging fragments it left behind. The
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
	// (snapshot reads + staging writes + cutover moves).
	RowsCopied  int64
	PagesCopied int64
	// Envelopes counts the transport deliveries the migration itself
	// issued (snapshot, replay, cutover and cleanup traffic).
	Envelopes int64
	// CatchupPeak is the delta queue's high-water mark; CatchupReplayed
	// the total mirrored operations replayed into staging.
	CatchupPeak     int
	CatchupReplayed int
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
	ID         uint64
	Phase      string
	Slots      []int
	Dsts       []int
	QueueDepth int
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

// migStaging names one staging fragment for the WAL record and cleanup.
type migStaging struct {
	Node int
	Name string
	GI   bool
}

// migQueued is one mirrored operation awaiting replay at a destination.
type migQueued struct {
	dst int
	req any
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
	staging []migStaging

	mu      sync.Mutex
	phase   string
	armed   map[string]bool // structures whose copy finished: mirror their mutations
	queue   []migQueued
	stopped bool // cutover reached or migration aborted: stop mirroring

	stats MigrationStats
	start time.Time
}

// Migration WAL records (carried in the coordinator log's Req payloads).
type migStartRec struct {
	ID      uint64
	Moves   map[int]migMove
	Target  hashpart.Map
	Staging []migStaging
}
type migPhaseRec struct {
	ID    uint64
	Phase string
}
type migCommitRec struct{ ID uint64 }
type migAbortRec struct{ ID uint64 }

// migCleanupRec records that the post-commit cleanup (source-copy scrub,
// staging drops) completed; a commit record without one means
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
	m := c.part.Map()
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
			ID:         mig.id,
			Phase:      mig.phase,
			Slots:      sortedKeys(mig.moves),
			Dsts:       append([]int(nil), mig.dsts...),
			QueueDepth: len(mig.queue),
		}
		mig.mu.Unlock()
	}
	c.migMu.RUnlock()
	return t
}

// failIfMigrating refuses catalog-shape changes while data is in flight:
// a fragment created mid-migration would have no staging copy and no tap.
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
	if err := c.failIfReplicated("AddNode"); err != nil {
		return -1, err
	}
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
	dn := node.New(dst, c.cfg.MemPages)
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

	// Empty fragments of every cataloged object, so broadcasts, gathers
	// and checkpoints uniformly include the new node from here on.
	for _, spec := range c.fragSpecs() {
		for _, req := range append([]any{spec.createReq(spec.Name, c.cfg.PageRows)}, spec.indexReqs()...) {
			if _, err := c.rawCall(dst, req); err != nil {
				return dst, err
			}
		}
	}

	// Refine the slot table so the new node's share is expressible, then
	// install it: owners are repeated, so routing is unchanged — only the
	// epoch moves (compiled plans recompile against identical routing).
	m := c.part.Map()
	for len(m.Owner) < 2*(dst+1) {
		m = m.Doubled()
	}
	m.Nodes = dst + 1
	m.Epoch++
	if err := c.part.Install(m); err != nil {
		return dst, err
	}
	c.cat.SetPartitionMap(m)
	return dst, nil
}

// RebalanceNode live-migrates a proportional share of hash slots to the
// given (typically just-added, slot-less) node. Shares are stolen from
// the most-loaded owners.
func (c *Cluster) RebalanceNode(dst int) error {
	if err := c.failIfReplicated("RebalanceNode"); err != nil {
		return err
	}
	cur := c.part.Map()
	if dst < 0 || dst >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", dst, c.NumNodes())
	}
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
		target.Owner[s] = dst
	}
	if len(moves) == 0 {
		return nil
	}
	target.Epoch = cur.Epoch + 1
	return c.migrate(cur, target, moves)
}

// DecommissionNode drains a node: every hash slot it owns is
// live-migrated to the least-loaded surviving nodes, after which the node
// is marked retired — still addressable (its empty fragments keep
// broadcasts uniform) but owning no data. The node can then be taken
// down without degrading the cluster.
func (c *Cluster) DecommissionNode(n int) error {
	if err := c.failIfReplicated("DecommissionNode"); err != nil {
		return err
	}
	cur := c.part.Map()
	if n < 0 || n >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	if c.numRetired() >= c.NumNodes()-1 && len(cur.SlotsOwnedBy(n)) > 0 {
		return fmt.Errorf("cluster: cannot decommission the last active node")
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
		target.Owner[s] = light
	}
	if len(moves) > 0 {
		target.Epoch = cur.Epoch + 1
		if err := c.migrate(cur, target, moves); err != nil {
			return err
		}
	}
	c.migMu.Lock()
	c.retired[n] = true
	c.migMu.Unlock()
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

// migrate runs the three-phase live migration of the given slot moves.
func (c *Cluster) migrate(routing, target hashpart.Map, moves map[int]migMove) error {
	m := &migration{
		id:      c.migSeq.Add(1),
		routing: routing,
		target:  target,
		moves:   moves,
		armed:   map[string]bool{},
		start:   time.Now(),
	}
	dstSet := map[int]bool{}
	for _, mv := range moves {
		dstSet[mv.Dst] = true
	}
	m.dsts = sortedKeys(dstSet)
	m.stats = MigrationStats{ID: m.id, Slots: sortedKeys(moves), Dsts: m.dsts}

	// Plan every staging fragment up front so the WAL start record is a
	// complete cleanup manifest even if the coordinator dies mid-copy.
	for _, spec := range c.fragSpecs() {
		for _, d := range m.dsts {
			m.staging = append(m.staging, migStaging{Node: d, Name: m.stagingName(spec.Name), GI: spec.GI})
		}
	}

	// Register the migration: from here on DML takes shared claims on the
	// moving ranges and DDL is refused.
	c.migMu.Lock()
	if c.mig != nil {
		c.migMu.Unlock()
		return fmt.Errorf("%w already in flight", ErrMigration)
	}
	c.mig = m
	c.migMu.Unlock()

	c.migLog(migStartRec{ID: m.id, Moves: moves, Target: target, Staging: m.staging}, true)
	err := c.runMigration(m)
	if err != nil {
		if m.committed() {
			// The target map is installed — the migration happened; only
			// the post-commit cleanup is unfinished. Roll forward, never
			// back: ResumeMigrations scrubs the leftover source copies.
			c.finishMigration(m)
			return fmt.Errorf("%w %d committed but cleanup pending (%v): run ResumeMigrations", ErrMigration, m.id, err)
		}
		c.abortMigration(m, err)
		return fmt.Errorf("%w %d aborted: %w", ErrMigration, m.id, err)
	}
	c.finishMigration(m)
	return nil
}

// committed reports whether the migration passed its commit point (target
// map installed).
func (m *migration) committed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Committed
}

// reachedCutover reports whether the cutover phase began (destination
// state may hold merged data; an abort must scrub it and rebuild GIs).
func (m *migration) reachedCutover() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase == "cutover" || m.phase == "cleanup"
}

// finishMigration deregisters the migration and publishes its stats.
func (c *Cluster) finishMigration(m *migration) {
	m.mu.Lock()
	m.stopped = true
	m.stats.Elapsed = time.Since(m.start)
	stats := m.stats
	m.mu.Unlock()
	c.migMu.Lock()
	c.mig = nil
	c.lastMig = &stats
	c.migMu.Unlock()
}

func (m *migration) stagingName(frag string) string {
	return fmt.Sprintf("%s~mig%d", frag, m.id)
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

// migCall issues one migration delivery (counted in the stats).
func (c *Cluster) migCall(m *migration, to int, req any) (any, error) {
	m.mu.Lock()
	m.stats.Envelopes++
	m.mu.Unlock()
	return c.rawCall(to, req)
}

// migCaller is migCall bound to one migration.
func (c *Cluster) migCaller(m *migration) func(to int, req any) (any, error) {
	return func(to int, req any) (any, error) { return c.migCall(m, to, req) }
}

// runMigration executes the three phases.
func (c *Cluster) runMigration(m *migration) error {
	// Phase 1: snapshot copy, object by object, arming taps.
	for _, group := range c.fragGroups() {
		if err := c.copyGroup(m, group); err != nil {
			return err
		}
	}
	// Phase 2: replay the delta queue while DML keeps running; the
	// remainder drains under the cutover claim.
	if err := c.setPhase(m, "catchup"); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		n, err := c.replayQueue(m)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	// Phase 3: cutover.
	return c.cutover(m)
}

// migMoved reports whether a value's slot is migrating and currently
// homed at node `at`.
func (m *migration) migMoved(v types.Value, at int) (migMove, bool) {
	s := m.routing.Slot(v)
	mv, ok := m.moves[s]
	if !ok || mv.Src != at {
		return migMove{}, false
	}
	return mv, true
}

// sink is the migration's slot sink for data homed at node `at`: an
// element of a migrating slot goes to the slot's destination, into the
// staging copy there, unmetered.
func (m *migration) sink(at int, deliver func(dst int, req any, elems int) error) slotSink {
	return slotSink{
		route: func(v types.Value, out []int) []int {
			if mv, ok := m.migMoved(v, at); ok {
				out = append(out, mv.Dst)
			}
			return out
		},
		name:    m.stagingName,
		deliver: deliver,
	}
}

// arm starts mirroring one structure's mutations into the catch-up queue.
// Must be called while the copy claim is still held, so no mutation lands
// between snapshot and tap.
func (m *migration) arm(name string) {
	m.mu.Lock()
	m.armed[name] = true
	m.mu.Unlock()
}

func (m *migration) isArmed(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.stopped && m.armed[name]
}

// copyGroup snapshots the migrating slots of one base table — its rows,
// its auxiliary relations' rows and its global-index entries — or of one
// view into staging at the destinations, under a shared claim on the
// owner (blocking exactly its writers; global in serial modes), arming
// each structure before the claim is released.
func (c *Cluster) copyGroup(m *migration, group []fragSpec) error {
	owner := group[0].Owner
	if err := c.setPhase(m, "copy:"+owner); err != nil {
		return err
	}
	h := c.lockRead(owner)
	defer h.Release()

	// Staging fragments exist at every destination regardless of content,
	// so cleanup and cutover are uniform.
	for _, d := range m.dsts {
		for _, spec := range group {
			if _, err := c.migCall(m, d, spec.createReq(m.stagingName(spec.Name), c.cfg.PageRows)); err != nil {
				return err
			}
		}
	}
	ship := func(dst int, req any, elems int) error {
		if _, err := c.migCall(m, dst, req); err != nil {
			return err
		}
		m.mu.Lock()
		m.stats.RowsCopied += int64(elems)
		m.stats.PagesCopied += 2 * c.pageCount(elems) // read at src + write at dst
		m.mu.Unlock()
		return nil
	}
	for _, spec := range group {
		// One batch per source: PagesCopied rounds each to whole pages.
		for _, src := range m.srcNodes() {
			if err := copySlots(spec, spec.Name, []int{src}, c.migCaller(m), m.sink(src, ship)); err != nil {
				return err
			}
		}
		m.arm(spec.Name)
	}
	return nil
}

// srcNodes lists the distinct source nodes of the migration's moves.
func (m *migration) srcNodes() []int {
	set := map[int]bool{}
	for _, mv := range m.moves {
		set[mv.Src] = true
	}
	return sortedKeys(set)
}

// enqueue appends one mirrored operation to the catch-up queue.
func (m *migration) enqueue(dst int, req any, _ int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil
	}
	m.queue = append(m.queue, migQueued{dst: dst, req: req})
	if len(m.queue) > m.stats.CatchupPeak {
		m.stats.CatchupPeak = len(m.queue)
	}
	return nil
}

// replayQueue drains the current queue snapshot against the staging
// fragments, returning how many operations it replayed. New mutations
// keep arriving behind the snapshot; the cutover's final drain runs under
// the exclusive claims, when nothing can arrive anymore.
func (c *Cluster) replayQueue(m *migration) (int, error) {
	m.mu.Lock()
	batch := m.queue
	m.queue = nil
	m.mu.Unlock()
	for _, q := range batch {
		if _, err := c.migCall(m, q.dst, q.req); err != nil {
			return 0, err
		}
	}
	m.mu.Lock()
	m.stats.CatchupReplayed += len(batch)
	m.mu.Unlock()
	return len(batch), nil
}

// cutover is the migration's commit: under exclusive claims on every
// moving hash range plus every table and view (so no statement or locked
// read can observe the move), it drains the queue, merges staging into
// the real fragments, fixes up global-index entries referencing moved
// base rows, installs the target map and scrubs the source copies.
//
// Crash-safety shape: everything BEFORE the map install is additive —
// destinations gain redundant copies while the sources stay authoritative
// and intact, so an abort scrubs destination residue (and rebuilds GIs,
// whose fixups are the one pre-commit mutation that is not purely
// additive). Everything AFTER the install only removes the now-stale
// source copies, is idempotent, and rolls forward: a commit record
// without a cleanup record makes ResumeMigrations re-run the scrub.
func (c *Cluster) cutover(m *migration) error {
	if err := c.setPhase(m, "cutover"); err != nil {
		return err
	}
	var h *lockmgr.Held
	if c.serialStmts() {
		h = c.lockGlobal()
	} else {
		h = c.lm.AcquireShared()
		var claims []lockmgr.Claim
		claims = append(claims, c.migRangeClaims(lockmgr.X)...)
		for _, group := range c.fragGroups() {
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

	// Final drain, then stop the mirror: nothing else can arrive while
	// the claims are held.
	if _, err := c.replayQueue(m); err != nil {
		return err
	}
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()

	// Additive apply: staging → real fragments at every destination. For
	// tables with global indexes, also record the moved rows' old (source)
	// and new (destination) row ids for the entry fixups.
	type movedRows struct {
		at     int
		rows   []storage.RowID
		tuples []types.Tuple
	}
	fixDel := map[string][]movedRows{} // table → per-src old rows
	fixIns := map[string][]movedRows{} // table → per-dst new rows
	groups := c.fragGroups()
	for _, group := range groups {
		for _, spec := range group {
			needRows := spec.isTable() && len(giSpecs(group)) > 0
			if needRows {
				for _, src := range m.srcNodes() {
					resp, err := c.migCall(m, src, node.ScanWithRows{Frag: spec.Name})
					if err != nil {
						return err
					}
					rr := resp.(node.RowsResult)
					mv := movedRows{at: src}
					for i, tup := range rr.Tuples {
						if _, ok := m.migMoved(tup[spec.PartIdx], src); ok {
							mv.rows = append(mv.rows, rr.Rows[i])
							mv.tuples = append(mv.tuples, tup)
						}
					}
					if len(mv.rows) > 0 {
						fixDel[spec.Name] = append(fixDel[spec.Name], mv)
					}
				}
			}
			for _, d := range m.dsts {
				merge := slotSink{
					route: func(_ types.Value, out []int) []int { return append(out, d) },
					name:  func(string) string { return spec.Name },
					deliver: func(_ int, req any, elems int) error {
						resp, err := c.migCall(m, d, req)
						if err != nil {
							return err
						}
						if needRows {
							fixIns[spec.Name] = append(fixIns[spec.Name], movedRows{
								at: d, rows: resp.(node.InsertResult).Rows, tuples: req.(node.Insert).Tuples,
							})
						}
						m.mu.Lock()
						m.stats.PagesCopied += 2 * c.pageCount(elems)
						m.mu.Unlock()
						return nil
					},
				}
				if err := copySlots(spec, m.stagingName(spec.Name), []int{d}, c.migCaller(m), merge); err != nil {
					return err
				}
			}
		}
	}

	// Global-index fixups: every moved base row got a fresh row id at its
	// destination, so the (value, global-row-id) entries referencing the
	// old source rows are replaced at each value's target-map home. (The
	// merge above already placed migrating-value entries at their new
	// homes; the stale source-side copies fall to the post-commit scrub.)
	for _, group := range groups {
		gis, tn := giSpecs(group), group[0].Owner
		for _, mv := range fixDel[tn] {
			if err := c.giFixup(m, gis, mv.at, mv.rows, mv.tuples, false); err != nil {
				return err
			}
		}
		for _, mv := range fixIns[tn] {
			if err := c.giFixup(m, gis, mv.at, mv.rows, mv.tuples, true); err != nil {
				return err
			}
		}
	}

	// Commit point: install the target map. Plan-cache entries recompile
	// on the epoch bump; new statements route to the new homes.
	if err := c.part.Install(m.target); err != nil {
		return err
	}
	c.cat.SetPartitionMap(m.target)
	c.migLog(migCommitRec{ID: m.id}, true)
	m.mu.Lock()
	m.stats.Epoch = m.target.Epoch
	m.stats.Committed = true
	m.mu.Unlock()

	// Post-commit cleanup (roll-forward on failure): every row or entry
	// now misplaced under the installed map is a stale source copy.
	if err := c.setPhase(m, "cleanup"); err != nil {
		return err
	}
	if err := c.scrubMisplaced(m); err != nil {
		return err
	}
	_ = c.dropStaging(m.staging)
	c.migLog(migCleanupRec{ID: m.id}, true)

	m.mu.Lock()
	m.stats.CutoverStall = time.Since(stallStart)
	m.mu.Unlock()
	return c.cfg.Faults.Phase("done")
}

// scrubMisplaced deletes every fragment row and global-index entry that
// does not sit at its home under the currently installed partition map.
// In a healthy cluster nothing is misplaced; after a cutover's map
// install, exactly the moved rows' stale source copies are. Idempotent,
// so ResumeMigrations can roll a half-finished cleanup forward. Callers
// hold either the cutover claims or the global lock. A nil m scrubs
// without cost accounting.
func (c *Cluster) scrubMisplaced(m *migration) error {
	call := c.rawCall
	if m != nil {
		call = c.migCaller(m)
	}
	for _, spec := range c.fragSpecs() {
		for n := 0; n < c.NumNodes(); n++ {
			misplaced := func(v types.Value) bool { return c.part.NodeFor(v) != n }
			if err := scrubWhere(call, spec, n, misplaced); err != nil {
				return err
			}
		}
	}
	return nil
}

// scrubWhere deletes from node n's copy of one structure every element
// whose partition value is doomed.
func scrubWhere(call func(to int, req any) (any, error), spec fragSpec, n int, doomed func(types.Value) bool) error {
	resp, err := call(n, spec.scanReq(spec.Name))
	if err != nil {
		return err
	}
	var del any
	if spec.GI {
		sc, d := resp.(node.GIScanResult), node.GIDeleteBatch{GI: spec.Name}
		for i, v := range sc.Vals {
			if doomed(v) {
				d.Vals, d.Gs = append(d.Vals, v), append(d.Gs, sc.Gs[i])
			}
		}
		if len(d.Vals) > 0 {
			del = d
		}
	} else {
		rr, d := resp.(node.RowsResult), node.DeleteRows{Frag: spec.Name}
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

// giFixup deletes (insert=false) or inserts (insert=true) the
// global-index entries for the given base rows at each value's target-map
// home.
func (c *Cluster) giFixup(m *migration, gis []fragSpec, at int, rows []storage.RowID, tuples []types.Tuple, insert bool) error {
	home := slotSink{
		route:   func(v types.Value, out []int) []int { return append(out, m.target.NodeFor(v)) },
		name:    func(gi string) string { return gi },
		deliver: func(dst int, req any, _ int) error { _, err := c.migCall(m, dst, req); return err },
	}
	for _, gi := range gis {
		ci := gi.Table.Schema.MustColIndex(gi.GICol)
		vals := make([]types.Value, len(tuples))
		gs := make([]storage.GlobalRowID, len(tuples))
		for i, tup := range tuples {
			vals[i], gs[i] = tup[ci], storage.GlobalRowID{Node: int32(at), Row: rows[i]}
		}
		var req any = node.GIDeleteBatch{GI: gi.Name, Vals: vals, Gs: gs}
		if insert {
			req = node.GIInsertBatch{GI: gi.Name, Vals: vals, Gs: gs}
		}
		if err := splitTo(node.SplitMutation(req, nil), gi, home); err != nil {
			return err
		}
	}
	return nil
}

// abortMigration rolls a failed migration back presumed-abort style:
// before the commit point the sources stay authoritative, so aborting
// scrubs the destination-side residue (staging fragments, plus — if the
// cutover's additive apply began — rows merged into real fragments and
// global indexes, repaired by rebuild). A coordinator failure injected at
// a phase boundary (fault.ErrPhaseFail) skips the rollback — exactly what
// a dead coordinator would leave behind — and ResumeMigrations performs
// it from the WAL manifest instead. The same happens if the rollback
// itself fails (a node is down): the migration stays undecided in the log
// until ResumeMigrations succeeds.
func (c *Cluster) abortMigration(m *migration, cause error) {
	c.finishMigration(m)
	if errors.Is(cause, fault.ErrPhaseFail) {
		return
	}
	h := c.lockGlobal()
	defer h.Release()
	if err := c.rollbackLocked(m.moves, m.staging, m.reachedCutover()); err != nil {
		return
	}
	c.migLog(migAbortRec{ID: m.id}, true)
}

// rollbackLocked undoes an uncommitted migration's destination-side work:
// drop staging, delete any rows the cutover's additive apply merged into
// real destination fragments (identified by their migrating hash slot —
// under the still-installed routing map those rows belong at the source,
// which still has them), and, when the cutover began, rebuild every
// global-index fragment from the base tables (entry fixups are the one
// pre-commit mutation with no cheap inverse). Caller holds the global
// lock.
func (c *Cluster) rollbackLocked(moves map[int]migMove, staging []migStaging, cutoverBegan bool) error {
	if cutoverBegan {
		routing := c.part.Map()
		dsts := map[int]bool{}
		for _, mv := range moves {
			dsts[mv.Dst] = true
		}
		migrating := func(v types.Value) bool { _, mig := moves[routing.Slot(v)]; return mig }
		specs := c.fragSpecs()
		for _, spec := range specs {
			if spec.GI {
				continue
			}
			for _, d := range sortedKeys(dsts) {
				if err := scrubWhere(c.rawCall, spec, d, migrating); err != nil {
					return err
				}
			}
		}
		for _, gi := range specs {
			if !gi.GI {
				continue
			}
			for n := 0; n < c.NumNodes(); n++ {
				if _, err := c.rebuildGIFrag(gi, n); err != nil {
					return err
				}
			}
		}
	}
	return c.dropStaging(staging)
}

// dropStaging removes staging fragments, tolerating never-created ones
// (cleanup is idempotent) and reporting the first unreachable node: an
// abort with a dead destination stays undecided for ResumeMigrations,
// while the post-commit cleanup ignores the error and lets the roll-forward
// retry.
func (c *Cluster) dropStaging(staging []migStaging) error {
	var firstErr error
	for _, st := range staging {
		var req any = node.DropFragment{Name: st.Name}
		if st.GI {
			req = node.DropGlobalIndexFrag{Name: st.Name}
		}
		if _, err := c.rawCall(st.Node, req); err != nil && !isUnknownFrag(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// isUnknownFrag reports whether an error is a drop of a fragment that was
// never created (an expected case when cleaning up an early abort).
func isUnknownFrag(err error) bool { return errors.Is(err, node.ErrNoFragment) }

// ResumeMigrations recovers the elasticity state after a coordinator
// failure: every migration in the WAL is driven to a decision.
//
//   - commit + cleanup records: finished, nothing to do.
//   - commit without cleanup: the target map is installed but stale source
//     copies may remain — roll forward by re-running the (idempotent)
//     misplaced-row scrub and dropping staging.
//   - start without commit: presumed abort — roll back destination-side
//     residue and drop the staging fragments named in the start record's
//     manifest.
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
		c.mig.mu.Lock()
		c.mig.stopped = true
		c.mig.mu.Unlock()
		c.mig = nil
	}
	c.migMu.Unlock()

	committed := map[uint64]bool{}
	cleaned := map[uint64]bool{}
	aborted := map[uint64]bool{}
	lastPhase := map[uint64]string{}
	var starts []migStartRec
	for _, rec := range c.coordLog.All() {
		switch r := rec.Req.(type) {
		case migCommitRec:
			committed[r.ID] = true
		case migCleanupRec:
			cleaned[r.ID] = true
		case migAbortRec:
			aborted[r.ID] = true
		case migPhaseRec:
			lastPhase[r.ID] = r.Phase
		case migStartRec:
			starts = append(starts, r)
		}
	}
	for _, start := range starts {
		switch {
		case aborted[start.ID] || (committed[start.ID] && cleaned[start.ID]):
			continue
		case committed[start.ID]:
			if err := c.scrubMisplaced(nil); err != nil {
				return fmt.Errorf("%w %d: roll-forward cleanup: %w", ErrMigration, start.ID, err)
			}
			if err := c.dropStaging(start.Staging); err != nil {
				return fmt.Errorf("%w %d: roll-forward cleanup: %w", ErrMigration, start.ID, err)
			}
			c.migLog(migCleanupRec{ID: start.ID}, true)
		default:
			phase := lastPhase[start.ID]
			cutoverBegan := phase == "cutover" || phase == "cleanup"
			if err := c.rollbackLocked(start.Moves, start.Staging, cutoverBegan); err != nil {
				return fmt.Errorf("%w %d: rollback: %w", ErrMigration, start.ID, err)
			}
			c.migLog(migAbortRec{ID: start.ID}, true)
		}
	}
	return nil
}

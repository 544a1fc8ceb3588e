package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/lockmgr"
	"joinview/internal/maintain"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// This file is the durable group-commit maintenance queue (Config
// .AsyncMaintenance). A deferring DML statement is resolved like any
// other (dml.go) — against the effective table state: flushed base plus
// the pending queue, in order — and enqueues its logical delta instead of
// being applied; in Durability mode the enqueue is a forced
// coordinator-log record — the statement's group-commit durability point.
// A flush epoch snapshots the queue, compacts it per table (insert/delete
// pairs cancel, repeated keys collapse to their net count), and applies
// each table group as one statement — a presumed-abort 2PC scope whose
// commit record carries a FlushCommit tag. The protocol is
// replay-idempotent:
//
//	ENQUEUE (forced)            the DML statement's commit point
//	EPOCH-PLAN (forced)         epoch rolls forward from here
//	COMMIT+FlushCommit (forced) per group: commit point == done marker
//	EPOCH-DONE (forced)         entries <= ThroughSeq discharged
//
// Recovery (ResumeMaintenance) rebuilds the queue from these records: an
// epoch plan without its done record re-applies exactly the groups that
// lack a tagged commit (uncommitted partial groups were already aborted
// at the nodes by presumed abort), then logs the done record; entries
// past the last done record are pending again. The flusher announces the
// phase boundaries "enqueue", "compact", "flush" and "ack" through the
// fault injector so chaos tests can kill the coordinator or a node at
// each step.
//
// All stored state — base fragments, auxiliary relations, global
// indexes, views — stays prefix-consistent at the watermark (the queue
// defers whole statements, not just derived work), so consistency checks
// and bounded-stale reads are valid at any moment.

// ErrOverload reports a DML statement refused by the queue's admission
// control: queue depth or staleness exceeded its configured bound
// (Options.MaxQueueDepth / Options.MaxStaleness). The statement left no
// effects; retry after the flusher drains.
var ErrOverload = errors.New("cluster: maintenance queue overloaded")

// ReadMode selects the staleness contract of an async-mode view read.
type ReadMode uint8

const (
	// ReadAtWatermark returns the materialized state immediately, with
	// the watermark alongside — the bounded-staleness read. The contract
	// is per-table prefix consistency: each table (and the views over
	// it) reflects a prefix of the statement stream no older than
	// Watermark.Epoch. While a flush epoch is in flight, its committed
	// table groups are already visible, so the state may lie anywhere
	// between the returned watermark and the in-flight epoch; a
	// cross-table snapshot at exactly Watermark.Epoch is guaranteed only
	// when no flush is running.
	ReadAtWatermark ReadMode = iota
	// ReadFresh flushes every pending delta first, so the read reflects
	// all previously committed statements.
	ReadFresh
)

// Watermark locates the queue's apply frontier: what a bounded-stale
// read reflects and what it is missing.
type Watermark struct {
	// Epoch is the last completed flush epoch (0 before any flush).
	Epoch uint64
	// FlushedSeq is the highest enqueue sequence discharged by a
	// completed epoch.
	FlushedSeq uint64
	// Pending is the number of deferred statements not yet applied.
	Pending int
	// Lag is the age of the oldest pending entry (0 when none).
	Lag time.Duration
}

// queuedDelta is one deferred logical statement.
type queuedDelta struct {
	seq    uint64
	table  string
	op     maintain.Op
	tuples []types.Tuple
	at     time.Time
}

// flushGroup is one table's compacted net delta within an epoch.
type flushGroup struct {
	table   string
	deletes []types.Tuple
	inserts []types.Tuple
}

// epochRun is an epoch between its plan record and its done record. Once
// created (and, in Durability mode, logged) it must roll forward: groups
// already committed are durable and cannot be taken back, so a failed
// run is retried — done groups skipped — never re-planned.
type epochRun struct {
	epoch      uint64
	throughSeq uint64
	entries    []queuedDelta // raw entries, for the in-flight overlay
	groups     []flushGroup
	done       []bool
	rawTuples  int
}

// tableDone reports whether every group of the run touching table has
// committed — i.e. the run's entries for that table are fully reflected
// in stored state.
func (r *epochRun) tableDone(table string) bool {
	for i, g := range r.groups {
		if g.table == table && !r.done[i] {
			return false
		}
	}
	return true
}

// asyncQueue is the coordinator's deferred-maintenance state. aq.mu is a
// leaf lock: nothing else is acquired under it.
type asyncQueue struct {
	mu         sync.Mutex
	cond       *sync.Cond // broadcast when depth drops or an epoch completes
	pending    []queuedDelta
	nextSeq    uint64 // next enqueue sequence (first entry is seq 1)
	flushedSeq uint64
	epoch      uint64 // last completed epoch
	epochSeq   uint64 // last allocated epoch number (>= epoch)
	inflight   *epochRun
	lastErr    error // most recent background-flush failure

	// ddlHold counts DDL drains in progress: while positive, new
	// deferring DML statements stall at ddlGate so the drain-then-lock
	// loop in lockGlobalDrained terminates (only statements already past
	// the gate can still enqueue, and there are finitely many).
	ddlHold int

	wake     chan struct{} // nudges the background flusher
	stop     chan struct{}
	stopOnce sync.Once
}

func newAsyncQueue() *asyncQueue {
	aq := &asyncQueue{wake: make(chan struct{}, 1), stop: make(chan struct{})}
	aq.cond = sync.NewCond(&aq.mu)
	return aq
}

// asyncOn reports whether DML defers its maintenance into the queue.
func (c *Cluster) asyncOn() bool { return c.cfg.AsyncMaintenance }

// Watermark snapshots the queue's apply frontier. Zero when async
// maintenance is off.
func (c *Cluster) Watermark() Watermark {
	if c.aq == nil {
		return Watermark{}
	}
	c.aq.mu.Lock()
	defer c.aq.mu.Unlock()
	w := Watermark{Epoch: c.aq.epoch, FlushedSeq: c.aq.flushedSeq, Pending: len(c.aq.pending)}
	if len(c.aq.pending) > 0 {
		w.Lag = time.Since(c.aq.pending[0].at)
	}
	return w
}

// FlushErr returns the most recent background-flush failure (nil after a
// flush succeeds). Manual Flush calls report their errors directly.
func (c *Cluster) FlushErr() error {
	if c.aq == nil {
		return nil
	}
	c.aq.mu.Lock()
	defer c.aq.mu.Unlock()
	return c.aq.lastErr
}

// admitDelta applies admission control. Called BEFORE the statement's
// table locks are taken: a blocked writer must not hold locks the
// flusher needs to drain the queue. The bound is therefore advisory —
// concurrent admitted writers may briefly overshoot it.
func (c *Cluster) admitDelta() error {
	if c.cfg.MaxQueueDepth <= 0 && c.cfg.MaxStaleness <= 0 {
		return nil
	}
	aq := c.aq
	background := c.cfg.EpochSize > 0 || c.cfg.FlushInterval > 0
	aq.mu.Lock()
	for {
		select {
		case <-aq.stop:
			aq.mu.Unlock()
			return fmt.Errorf("cluster: maintenance queue closed")
		default:
		}
		depth := len(aq.pending)
		over := ""
		if c.cfg.MaxQueueDepth > 0 && depth >= c.cfg.MaxQueueDepth {
			over = fmt.Sprintf("depth %d >= max %d", depth, c.cfg.MaxQueueDepth)
		} else if c.cfg.MaxStaleness > 0 && depth > 0 && time.Since(aq.pending[0].at) > c.cfg.MaxStaleness {
			over = fmt.Sprintf("staleness %v > max %v", time.Since(aq.pending[0].at).Round(time.Millisecond), c.cfg.MaxStaleness)
		}
		if over == "" {
			aq.mu.Unlock()
			return nil
		}
		c.qstats.RecordOverload()
		if !c.cfg.OverloadBlock {
			aq.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrOverload, over)
		}
		if background {
			// A persistently failing flush must not hot-loop: if the last
			// flush attempt errored, the queue is not draining, so return
			// the failure to the writer instead of re-waking the flusher
			// (it retries on its own next wake). lastErr clears on the
			// next successful epoch and writers can retry then.
			if err := aq.lastErr; err != nil {
				aq.mu.Unlock()
				return fmt.Errorf("%w: %s; queue not draining: %v", ErrOverload, over, err)
			}
			// Wake the flusher and wait for the next epoch to complete.
			select {
			case aq.wake <- struct{}{}:
			default:
			}
			aq.cond.Wait()
			continue
		}
		// No background flusher: the blocked writer drains inline.
		aq.mu.Unlock()
		if err := c.Flush(); err != nil {
			return fmt.Errorf("cluster: inline drain for blocked writer: %w", err)
		}
		aq.mu.Lock()
	}
}

// enqueue defers a resolved statement: its deltas — the delete of its
// victims, then the insert of its adds; an update carries both — join the
// queue atomically instead of running the maintenance pipeline. In
// Durability mode every entry is logged and one Force makes the batch
// durable: the statement's group-commit point. The queue keeps its own
// copies: the caller's tuples are its to reuse once the statement returns.
func (c *Cluster) enqueue(st *stmt) {
	var entries []queuedDelta
	if len(st.victims) > 0 {
		entries = append(entries, queuedDelta{table: st.table, op: maintain.OpDelete,
			tuples: append([]types.Tuple(nil), st.victims...)})
	}
	if len(st.add) > 0 {
		cloned := make([]types.Tuple, len(st.add))
		for i, tup := range st.add {
			cloned[i] = tup.Clone()
		}
		entries = append(entries, queuedDelta{table: st.table, op: maintain.OpInsert, tuples: cloned})
	}
	if len(entries) == 0 {
		return
	}
	aq := c.aq
	aq.mu.Lock()
	for i := range entries {
		aq.nextSeq++
		entries[i].seq = aq.nextSeq
		entries[i].at = time.Now()
		if c.cfg.Durability {
			c.coordLog.Append(wal.Record{Kind: wal.KindEnqueue, Seq: entries[i].seq, Req: wal.EnqueueDelta{
				Seq:    entries[i].seq,
				Table:  entries[i].table,
				Op:     uint8(entries[i].op),
				At:     entries[i].at.UnixNano(),
				Tuples: entries[i].tuples,
			}})
		}
	}
	if c.cfg.Durability {
		c.coordLog.Force()
	}
	aq.pending = append(aq.pending, entries...)
	depth := len(aq.pending)
	aq.mu.Unlock()
	for _, e := range entries {
		c.qstats.RecordEnqueue(len(e.tuples))
	}
	c.bumpRows(st.table, int64(len(st.add)-len(st.victims)))
	if c.cfg.EpochSize > 0 && depth >= c.cfg.EpochSize {
		select {
		case aq.wake <- struct{}{}:
		default:
		}
	}
}

// overlayVictims computes the tuples pred matches in the table's
// effective state: base — the stored tuples matching pred, from the same
// scan a synchronous statement runs — overlaid with every unapplied queue
// entry in order, bag semantics. Called with the table's X claim held, so
// neither a flush nor another writer can move the state underneath.
func (c *Cluster) overlayVictims(t *catalog.Table, pred expr.Expr, base []types.Tuple) ([]types.Tuple, error) {
	// Gather the unapplied entries for this table: the in-flight epoch's
	// (unless its table groups already committed, in which case the base
	// scan saw their effect) followed by the pending queue. Entries with
	// seq <= the in-flight run's throughSeq still sit in aq.pending (they
	// are discharged only at epoch end), so the pending loop must skip
	// them — they are already represented either by run.entries (table
	// not done) or by the applied base state (table done); counting them
	// again would resolve phantom duplicate victims.
	c.aq.mu.Lock()
	run := c.aq.inflight
	var overlay []queuedDelta
	if run != nil && !run.tableDone(t.Name) {
		for _, e := range run.entries {
			if e.table == t.Name {
				overlay = append(overlay, e)
			}
		}
	}
	for _, e := range c.aq.pending {
		if run != nil && e.seq <= run.throughSeq {
			continue
		}
		if e.table == t.Name {
			overlay = append(overlay, e)
		}
	}
	c.aq.mu.Unlock()
	if len(overlay) == 0 {
		return base, nil
	}
	// Replay the overlay: pending inserts add instances; pending deletes
	// consume an added instance first, else mark a stored instance
	// removed.
	removed := map[string]int{} // stored instances deleted by the overlay
	var added []types.Tuple     // instances inserted by the overlay
	for _, e := range overlay {
		for _, tup := range e.tuples {
			if e.op == maintain.OpInsert {
				added = append(added, tup)
				continue
			}
			consumed := false
			for i, a := range added {
				if a.Equal(tup) {
					added = append(added[:i], added[i+1:]...)
					consumed = true
					break
				}
			}
			if !consumed {
				removed[string(types.EncodeTuple(tup))]++
			}
		}
	}
	var victims []types.Tuple
	for _, tup := range base {
		k := string(types.EncodeTuple(tup))
		if removed[k] > 0 {
			removed[k]--
			continue
		}
		victims = append(victims, tup)
	}
	for _, tup := range added {
		ok, err := expr.Matches(pred, t.Schema, tup)
		if err != nil {
			return nil, err
		}
		if ok {
			victims = append(victims, tup)
		}
	}
	return victims, nil
}

// Flush completes any in-flight epoch, then drains every pending entry
// in one new epoch. A no-op when async maintenance is off or the queue
// is empty. Concurrent calls serialize.
func (c *Cluster) Flush() error {
	if !c.asyncOn() {
		return nil
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	err := c.withFailover(c.flushLocked)
	c.aq.mu.Lock()
	c.aq.lastErr = err
	if err != nil {
		// Waiters must re-check: the queue is not draining.
		c.aq.cond.Broadcast()
	}
	c.aq.mu.Unlock()
	return err
}

func (c *Cluster) flushLocked() error {
	// Roll an interrupted epoch forward before opening a new one.
	c.aq.mu.Lock()
	run := c.aq.inflight
	c.aq.mu.Unlock()
	if run != nil {
		if err := c.applyEpoch(run); err != nil {
			return err
		}
	}

	c.aq.mu.Lock()
	if len(c.aq.pending) == 0 {
		c.aq.mu.Unlock()
		return nil
	}
	entries := append([]queuedDelta(nil), c.aq.pending...)
	c.aq.mu.Unlock()

	groups, raw := compactEntries(entries)
	if err := c.cfg.Faults.Phase("compact"); err != nil {
		return err // nothing durable yet: the epoch never existed
	}
	if len(groups) == 0 {
		// Every delta cancelled: discharge the entries without touching a
		// node. The done record still commits the discard durably.
		c.qstats.RecordEpoch(raw, 0)
		return c.completeEpoch(&epochRun{
			epoch:      c.nextEpochNum(),
			throughSeq: entries[len(entries)-1].seq,
			entries:    entries,
			rawTuples:  raw,
		})
	}

	run = &epochRun{
		epoch:      c.nextEpochNum(),
		throughSeq: entries[len(entries)-1].seq,
		entries:    entries,
		groups:     groups,
		done:       make([]bool, len(groups)),
		rawTuples:  raw,
	}
	if c.cfg.Durability {
		c.coordLog.Append(wal.Record{Kind: wal.KindEpochPlan, Req: walEpochPlan(run)})
		c.coordLog.Force()
	}
	c.aq.mu.Lock()
	c.aq.inflight = run
	c.aq.mu.Unlock()
	return c.applyEpoch(run)
}

// nextEpochNum allocates the next epoch number.
func (c *Cluster) nextEpochNum() uint64 {
	c.aq.mu.Lock()
	defer c.aq.mu.Unlock()
	c.aq.epochSeq++
	return c.aq.epochSeq
}

// walEpochPlan projects a run onto its log payload.
func walEpochPlan(run *epochRun) wal.EpochPlan {
	p := wal.EpochPlan{Epoch: run.epoch, ThroughSeq: run.throughSeq}
	for _, g := range run.groups {
		p.Groups = append(p.Groups, wal.EpochGroup{Table: g.table, Deletes: g.deletes, Inserts: g.inserts})
	}
	return p
}

// compactEntries nets the epoch's entries per table into their final
// multiset delta: an insert/delete pair of the same tuple cancels, and
// repeated instances collapse to one group entry per net count. Order is
// deterministic — tables sorted by name, tuples by first appearance.
// raw is the total tuple count that entered compaction.
func compactEntries(entries []queuedDelta) (groups []flushGroup, raw int) {
	type net struct {
		tuple types.Tuple
		count int
		order int
	}
	perTable := map[string]map[string]*net{}
	for _, e := range entries {
		m := perTable[e.table]
		if m == nil {
			m = map[string]*net{}
			perTable[e.table] = m
		}
		for _, tup := range e.tuples {
			raw++
			k := string(types.EncodeTuple(tup))
			n := m[k]
			if n == nil {
				n = &net{tuple: tup, order: len(m)}
				m[k] = n
			}
			if e.op == maintain.OpInsert {
				n.count++
			} else {
				n.count--
			}
		}
	}
	tables := make([]string, 0, len(perTable))
	for t := range perTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		nets := make([]*net, 0, len(perTable[t]))
		for _, n := range perTable[t] {
			nets = append(nets, n)
		}
		sort.Slice(nets, func(i, j int) bool { return nets[i].order < nets[j].order })
		g := flushGroup{table: t}
		for _, n := range nets {
			for i := 0; i < -n.count; i++ {
				g.deletes = append(g.deletes, n.tuple)
			}
			for i := 0; i < n.count; i++ {
				g.inserts = append(g.inserts, n.tuple)
			}
		}
		if len(g.deletes) > 0 || len(g.inserts) > 0 {
			groups = append(groups, g)
		}
	}
	return groups, raw
}

// applyEpoch drives a run to its done record: every unapplied group runs
// as one atomic statement, then the epoch completes. An
// error (a crashed node, an injected coordinator failure) leaves the run
// in flight — a later Flush or ResumeMaintenance retries exactly the
// groups still undone.
func (c *Cluster) applyEpoch(run *epochRun) error {
	for gi := range run.groups {
		if run.done[gi] {
			continue
		}
		if err := c.cfg.Faults.Phase("flush"); err != nil {
			return err
		}
		if err := c.applyGroup(run, gi); err != nil {
			return fmt.Errorf("cluster: epoch %d group %q: %w", run.epoch, run.groups[gi].table, err)
		}
	}
	if err := c.cfg.Faults.Phase("ack"); err != nil {
		return err
	}
	flushed := 0
	for _, g := range run.groups {
		flushed += len(g.deletes) + len(g.inserts)
	}
	c.qstats.RecordEpoch(run.rawTuples, flushed)
	return c.completeEpoch(run)
}

// applyGroup runs one table's net delta as one statement: its deletes,
// located by value, then its inserts. The 2PC commit record carries the
// FlushCommit tag, so "committed" and "done" are a single forced write;
// the done flag is set before the table claim releases, keeping the
// overlay readers' view of (stored state, done flags) consistent.
func (c *Cluster) applyGroup(run *epochRun, gi int) error {
	g := &run.groups[gi]
	h, cat := c.lockStmt(g.table)
	defer h.Release()
	if err := c.failIfDegraded(); err != nil {
		return err
	}
	st := stmt{table: g.table, remove: g.deletes, add: g.inserts,
		tag: &wal.FlushCommit{Epoch: run.epoch, Group: gi}}
	if err := c.resolve(cat, &st, false); err != nil {
		return err
	}
	if err := c.apply(cat, &st); err != nil {
		return err
	}
	c.aq.mu.Lock()
	run.done[gi] = true
	c.aq.mu.Unlock()
	return nil
}

// completeEpoch logs the done record, discharges the covered entries and
// wakes waiting readers and writers.
func (c *Cluster) completeEpoch(run *epochRun) error {
	if c.cfg.Durability {
		c.coordLog.Append(wal.Record{Kind: wal.KindEpochDone, Req: wal.EpochDone{Epoch: run.epoch, ThroughSeq: run.throughSeq}})
		c.coordLog.Force()
	}
	aq := c.aq
	aq.mu.Lock()
	i := 0
	for i < len(aq.pending) && aq.pending[i].seq <= run.throughSeq {
		i++
	}
	aq.pending = append([]queuedDelta(nil), aq.pending[i:]...)
	if run.throughSeq > aq.flushedSeq {
		aq.flushedSeq = run.throughSeq
	}
	if run.epoch > aq.epoch {
		aq.epoch = run.epoch
	}
	aq.inflight = nil
	aq.lastErr = nil
	aq.cond.Broadcast()
	aq.mu.Unlock()
	return nil
}

// ResumeMaintenance settles the queue after a failure: in Durability
// mode the authoritative queue state is rebuilt from the coordinator's
// log (the in-memory picture may be stale after a simulated coordinator
// crash), then any in-flight epoch rolls forward — re-applying exactly
// the groups without a tagged commit record — and its done record is
// written. Pending entries beyond the in-flight epoch stay queued for
// the normal flusher. Call it after crashed nodes have recovered.
func (c *Cluster) ResumeMaintenance() error {
	if !c.asyncOn() {
		return nil
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if c.cfg.Durability {
		c.rebuildQueueFromLog()
	}
	c.aq.mu.Lock()
	run := c.aq.inflight
	c.aq.mu.Unlock()
	if run == nil {
		return nil
	}
	return c.applyEpoch(run)
}

// rebuildQueueFromLog reconstructs the queue from the coordinator's
// forced records: pending = enqueues past the last epoch-done record,
// in-flight = the epoch plan without a done record (its committed groups
// identified by FlushCommit-tagged commit records).
func (c *Cluster) rebuildQueueFromLog() {
	var enqueues []wal.EnqueueDelta
	plans := map[uint64]wal.EpochPlan{}
	doneEpochs := map[uint64]bool{}
	committed := map[uint64]map[int]bool{}
	var lastDoneThrough, maxSeq, maxEpoch uint64
	for _, rec := range c.coordLog.All() {
		switch rec.Kind {
		case wal.KindEnqueue:
			e := rec.Req.(wal.EnqueueDelta)
			enqueues = append(enqueues, e)
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		case wal.KindEpochPlan:
			p := rec.Req.(wal.EpochPlan)
			plans[p.Epoch] = p
			if p.Epoch > maxEpoch {
				maxEpoch = p.Epoch
			}
		case wal.KindEpochDone:
			d := rec.Req.(wal.EpochDone)
			doneEpochs[d.Epoch] = true
			if d.ThroughSeq > lastDoneThrough {
				lastDoneThrough = d.ThroughSeq
			}
			if d.Epoch > maxEpoch {
				maxEpoch = d.Epoch
			}
		case wal.KindCommit:
			if fc, ok := rec.Req.(wal.FlushCommit); ok {
				if committed[fc.Epoch] == nil {
					committed[fc.Epoch] = map[int]bool{}
				}
				committed[fc.Epoch][fc.Group] = true
			}
		}
	}
	var inflight *epochRun
	for epoch, p := range plans {
		if doneEpochs[epoch] {
			continue
		}
		// At most one: flushes serialize and a new plan is only logged
		// after the previous epoch's done record.
		run := &epochRun{epoch: epoch, throughSeq: p.ThroughSeq, done: make([]bool, len(p.Groups))}
		for _, g := range p.Groups {
			run.groups = append(run.groups, flushGroup{table: g.Table, deletes: g.Deletes, inserts: g.Inserts})
			run.rawTuples += len(g.Deletes) + len(g.Inserts)
		}
		for gi := range run.done {
			run.done[gi] = committed[epoch][gi]
		}
		inflight = run
	}
	now := time.Now()
	var pending, inflightEntries []queuedDelta
	for _, e := range enqueues {
		if e.Seq <= lastDoneThrough {
			continue
		}
		// Restore the original enqueue time from the log so staleness
		// bounds survive a coordinator restart; records written before
		// the At field carry zero and fall back to the rebuild time.
		at := now
		if e.At > 0 {
			at = time.Unix(0, e.At)
		}
		qd := queuedDelta{seq: e.Seq, table: e.Table, op: maintain.Op(e.Op), tuples: e.Tuples, at: at}
		if inflight != nil && e.Seq <= inflight.throughSeq {
			inflightEntries = append(inflightEntries, qd)
			continue
		}
		pending = append(pending, qd)
	}
	if inflight != nil {
		inflight.entries = inflightEntries
	}
	aq := c.aq
	aq.mu.Lock()
	aq.pending = pending
	aq.inflight = inflight
	aq.flushedSeq = lastDoneThrough
	if maxSeq > aq.nextSeq {
		aq.nextSeq = maxSeq
	}
	if maxEpoch > aq.epochSeq {
		aq.epochSeq = maxEpoch
	}
	doneMax := uint64(0)
	for e := range doneEpochs {
		if e > doneMax {
			doneMax = e
		}
	}
	aq.epoch = doneMax
	aq.mu.Unlock()
}

// ReadViewRows reads a view under the chosen staleness mode. ReadFresh
// drains the queue first; ReadAtWatermark reads the materialized state
// immediately — prefix-consistent per table, at least as fresh as the
// returned watermark (see the ReadMode docs for the mid-flush caveat).
// Degraded clusters return partial rows with ErrPartial, as ever.
func (c *Cluster) ReadViewRows(name string, mode ReadMode) ([]types.Tuple, Watermark, error) {
	if mode == ReadFresh && c.asyncOn() {
		if err := c.Flush(); err != nil {
			return nil, c.Watermark(), err
		}
	}
	rows, err := c.ViewRows(name)
	return rows, c.Watermark(), err
}

// startFlusher launches the background epoch flusher. It wakes when the
// queue reaches EpochSize (nudged by enqueue), every FlushInterval, and
// when blocked writers need a drain; failures are retried on the next
// wake and surfaced through FlushErr.
func (c *Cluster) startFlusher() {
	c.flusherWG.Add(1)
	go func() {
		defer c.flusherWG.Done()
		var timer *time.Timer
		var tick <-chan time.Time
		if c.cfg.FlushInterval > 0 {
			timer = time.NewTimer(c.cfg.FlushInterval)
			tick = timer.C
			defer timer.Stop()
		}
		for {
			select {
			case <-c.aq.stop:
				return
			case <-c.aq.wake:
			case <-tick:
			}
			if timer != nil {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(c.cfg.FlushInterval)
			}
			_ = c.Flush() // error kept in FlushErr; retried next wake
		}
	}()
}

// stopFlusher shuts the background flusher down and releases any blocked
// writers.
func (c *Cluster) stopFlusher() {
	if c.aq == nil {
		return
	}
	c.aq.stopOnce.Do(func() { close(c.aq.stop) })
	c.flusherWG.Wait()
	c.aq.mu.Lock()
	c.aq.cond.Broadcast()
	c.aq.mu.Unlock()
}

// ddlGate stalls a deferring DML statement while a DDL drain is in
// progress. Called before the statement takes any lock, so a gated
// writer holds nothing the drain needs; it resumes once the DDL has its
// global lock (and then queues behind it on the ordinary lock protocol,
// re-reading the post-DDL catalog under its own statement lock).
func (c *Cluster) ddlGate() error {
	aq := c.aq
	aq.mu.Lock()
	defer aq.mu.Unlock()
	for aq.ddlHold > 0 {
		select {
		case <-aq.stop:
			return fmt.Errorf("cluster: maintenance queue closed")
		default:
		}
		aq.cond.Wait()
	}
	return nil
}

// setDDLHold raises or lowers the DDL drain gate.
func (c *Cluster) setDDLHold(hold bool) {
	aq := c.aq
	aq.mu.Lock()
	if hold {
		aq.ddlHold++
	} else {
		aq.ddlHold--
		if aq.ddlHold == 0 {
			aq.cond.Broadcast()
		}
	}
	aq.mu.Unlock()
}

// lockGlobalDrained drains the maintenance queue and acquires the DDL's
// global exclusive lock, guaranteeing the queue is empty while the lock
// is held — DDL may drop or backfill the very objects pending deltas
// reference. The drain cannot run under the lock (a flush takes
// statement claims, which the global lock excludes), so it loops
// flush-then-lock and re-checks the queue under the lock: a writer that
// slips an enqueue into the window between the drain and the
// acquisition makes the check fail, and the loop releases and
// re-drains. The gate makes the loop terminate — once raised, only the
// finitely many statements already past it can still enqueue.
func (c *Cluster) lockGlobalDrained() (*lockmgr.Held, error) {
	if !c.asyncOn() {
		return c.lockGlobal(), nil
	}
	c.setDDLHold(true)
	defer c.setDDLHold(false)
	for {
		if err := c.Flush(); err != nil {
			return nil, fmt.Errorf("cluster: draining maintenance queue before DDL: %w", err)
		}
		h := c.lockGlobal()
		c.aq.mu.Lock()
		empty := len(c.aq.pending) == 0 && c.aq.inflight == nil
		c.aq.mu.Unlock()
		if empty {
			return h, nil
		}
		h.Release()
	}
}

package cluster

import (
	"errors"
	"fmt"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// ErrDegraded marks a statement refused because a data-server node is down:
// maintenance must touch every fragment of the affected structures, so a
// write cannot commit consistently until the node recovers.
var ErrDegraded = errors.New("cluster: degraded (node down)")

// ErrPartial marks a read answered from the surviving nodes only. The rows
// returned alongside it are valid but incomplete.
var ErrPartial = errors.New("cluster: partial result (node down)")

// ErrSuspect marks a call refused because the destination's circuit
// breaker is open: the node failed BreakerThreshold consecutive delivery
// attempts, so the coordinator fails fast instead of burning the full
// retry budget on every statement. Recover/RestartNode close the
// breaker.
var ErrSuspect = errors.New("cluster: node suspect (circuit breaker open)")

// breakerOpen reports whether the node's circuit breaker is open.
func (c *Cluster) breakerOpen(n int) bool {
	if c.cfg.BreakerThreshold <= 0 {
		return false
	}
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	return c.brkOpen[n]
}

// breakerOK records a successful delivery: the consecutive-failure count
// resets (an open breaker stays open until explicit recovery — a stray
// late success must not half-open it under the statement path).
func (c *Cluster) breakerOK(n int) {
	if c.cfg.BreakerThreshold <= 0 {
		return
	}
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	c.brkConsec[n] = 0
}

// breakerFail records an exhausted delivery (retry budget burned on
// timeouts/transient faults); at BreakerThreshold consecutive failures the
// node becomes suspect.
func (c *Cluster) breakerFail(n int) {
	if c.cfg.BreakerThreshold <= 0 {
		return
	}
	c.brkMu.Lock()
	opened := false
	c.brkConsec[n]++
	if c.brkConsec[n] >= c.cfg.BreakerThreshold {
		if !c.brkOpen[n] {
			opened = true
		}
		c.brkOpen[n] = true
	}
	c.brkMu.Unlock()
	// Under replication a suspect node is treated as down outright: its
	// slots fail over to followers instead of the cluster limping along
	// refusing calls to it.
	if opened && c.replOn() {
		c.noteDown(n)
	}
}

// breakerReset closes a node's breaker after successful recovery.
func (c *Cluster) breakerReset(n int) {
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	delete(c.brkOpen, n)
	delete(c.brkConsec, n)
}

// Suspect lists nodes with open circuit breakers (sorted).
func (c *Cluster) Suspect() []int {
	c.brkMu.Lock()
	out := make([]int, 0, len(c.brkOpen))
	for n := range c.brkOpen {
		out = append(out, n)
	}
	c.brkMu.Unlock()
	sort.Ints(out)
	return out
}

// resilientTransport is the coordinator's delivery layer: every call to the
// underlying stack (possibly fault-injecting) gets bounded, immediate
// retries for transient failures, sequence-number wrapping of mutating
// requests so retries are idempotent, in-doubt resolution via SeqQuery when
// the retry budget runs out, and node-down bookkeeping that moves the
// cluster into degraded mode. It overrides the stack's Call and
// Broadcast and is otherwise the stack, so installing it as maintain.Env's
// transport upgrades every maintenance path without touching the call
// sites. Used directly it carries traffic outside any statement (reads,
// DDL); a write statement sends through its stmtScope, which is this
// transport plus the statement's TID, participants and undo log.
type resilientTransport struct {
	*netsim.Stack
	c *Cluster
}

// isMutating reports whether a request changes node state, and therefore
// needs sequence-number dedup for safe retry. Reads are naturally
// idempotent and go unwrapped. The classification lives in the node
// package (node.IsMutating) next to the request types and the redo log
// that shares it.
func isMutating(req any) bool { return node.IsMutating(req) }

// delivery says what a request is to the statement it belongs to.
type delivery uint8

const (
	// forward is the statement's own work (and all traffic outside any
	// statement): once applied it enters the scope's undo log.
	forward delivery = iota
	// mirrored is a follower's copy of an applied request. It joins the
	// statement's commit protocol but not its undo log: the mirror of the
	// primary's inverse undoes it.
	mirrored
	// undo is a compensation, or a DDL drop of a fragment the published
	// catalog no longer names. When the destination is (or becomes)
	// unreachable the request is queued for replay during Recover and the
	// failure is absorbed, because a rollback must make as much progress as
	// it can rather than abandon the surviving nodes.
	undo
)

// Call implements netsim.Transport for traffic outside any statement.
func (t *resilientTransport) Call(from, to int, req any) (any, error) {
	return t.c.resilientCall(nil, forward, from, to, req)
}

// Broadcast implements netsim.Transport for traffic outside any statement.
func (t *resilientTransport) Broadcast(from int, req any) ([]any, error) {
	return t.broadcast(nil, from, req)
}

// broadcast is Broadcast for statement sc (nil: none). The fan-out runs once through the
// stack (preserving its message accounting and, on a concurrent link, its
// parallel delivery); slots that failed are then retried individually under
// the same sequence number, so a node that executed the request but lost
// the reply answers the retry from its dedup cache.
//
// Once every down node's slots are promoted to followers the broadcast
// proceeds on the survivors, one delivery at a time: the dead nodes hold no
// data, so typed empty responses stand in for them.
func (t *resilientTransport) broadcast(sc *stmtScope, from int, req any) ([]any, error) {
	c := t.c
	down, degraded := c.firstDown()
	if degraded && !c.replServesComplete() {
		return nil, fault.NodeDownError{Node: down}
	}
	n := c.net.NumNodes()
	mut := isMutating(req)
	wreq, id := req, uint64(0)
	if !c.lean {
		live := make([]int, 0, n)
		for to := 0; to < n; to++ {
			if !degraded || !c.isDown(to) {
				live = append(live, to)
			}
		}
		wreq, id = c.seal(sc, req, live...)
	}
	var out []any
	if degraded {
		out = make([]any, n)
		for to := range out {
			if c.isDown(to) {
				out[to] = emptyRespFor(req)
			}
		}
	} else {
		var err error
		out, err = c.net.Broadcast(from, wreq)
		for to, resp := range out {
			if mut && resp != nil {
				c.tapMutation(sc, forward, to, wreq, resp)
			}
		}
		if err == nil {
			return out, nil
		}
	}
	// Every slot still empty is owed an individual delivery.
	var errs []error
	for to := range out {
		if out[to] != nil {
			continue
		}
		resp, err := c.deliver(sc, forward, from, to, wreq, id, mut)
		if err != nil {
			errs = append(errs, fmt.Errorf("netsim: broadcast to node %d: %w", to, err))
			continue
		}
		out[to] = resp
	}
	return out, errors.Join(errs...)
}

// seal wraps a mutating request in a fresh sequence envelope, so a retried
// delivery cannot double-apply; reads are naturally idempotent and go
// unwrapped (id 0). Traffic of a statement is stamped with the scope's
// transaction id and joins dests to its 2PC; everything else (sc nil) runs
// outside any transaction.
func (c *Cluster) seal(sc *stmtScope, req any, dests ...int) (any, uint64) {
	if !isMutating(req) {
		return req, 0
	}
	s := node.Seq{ID: c.seq.Add(1), Req: req, TID: sc.stamp(dests)}
	return s, s.ID
}

// resilientCall delivers one request of statement sc (nil: none) with the
// full retry/dedup/in-doubt protocol.
func (c *Cluster) resilientCall(sc *stmtScope, how delivery, from, to int, req any) (any, error) {
	mut := isMutating(req)
	if c.isDown(to) {
		if how == undo && mut {
			c.queueRepair(sc, to, repair{kind: repairRedo, id: c.seq.Add(1), req: req})
			return nil, nil
		}
		return nil, fault.NodeDownError{Node: to}
	}
	wreq, id := req, uint64(0)
	if !c.lean {
		wreq, id = c.seal(sc, req, to)
	}
	return c.deliver(sc, how, from, to, wreq, id, mut)
}

// deliver sends an already-sealed request through the retry loop, then
// resolves in-doubt outcomes. Every exit that saw a mutation applied
// reports it to tapMutation.
func (c *Cluster) deliver(sc *stmtScope, how delivery, from, to int, wreq any, id uint64, mut bool) (any, error) {
	if c.lean {
		// Fast path: without faults, timeouts, durability or a breaker a
		// delivery cannot spuriously fail, so the sequence envelope (whose
		// sole job is retry dedup) and the retry/in-doubt machinery are pure
		// overhead: one unwrapped attempt. Node-down bookkeeping stays with
		// the callers: MarkNodeDown and broken real-socket connections
		// still surface.
		resp, err := c.net.Call(from, to, wreq)
		if err == nil && mut {
			c.tapMutation(sc, how, to, wreq, resp)
		}
		return resp, err
	}
	if c.breakerOpen(to) {
		return nil, fmt.Errorf("%w: node %d", ErrSuspect, to)
	}
	resp, err := c.retry(from, to, wreq)
	if err == nil {
		c.breakerOK(to)
		if mut {
			c.tapMutation(sc, how, to, wreq, resp)
		}
		return resp, nil
	}
	raw := wreq
	if s, ok := wreq.(node.Seq); ok {
		raw = s.Req
	}
	if n, down := fault.IsNodeDown(err); down {
		// The fault layer refuses deliveries to a crashed node before
		// they reach it, so the request was not applied.
		c.noteDown(n)
		if how == undo && mut {
			c.queueRepair(sc, to, repair{kind: repairRedo, id: id, req: raw})
			return nil, nil
		}
		// Tag with ErrDegraded so the statement that discovers the
		// crash fails the same way every later statement will.
		return nil, fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	if !fault.IsTransient(err) {
		return nil, err
	}
	if !mut {
		c.breakerFail(to)
		return nil, err
	}
	// Retry budget exhausted on a transient failure: the node may or may
	// not have applied the request (a lost reply looks identical to a lost
	// request). Ask it, retrying the (idempotent) query itself through the
	// fault storm.
	if q, qerr := c.retry(from, to, node.SeqQuery{ID: id}); qerr == nil {
		c.breakerOK(to)
		if r := q.(node.SeqQueryResult); r.Applied {
			c.tapMutation(sc, how, to, wreq, r.Resp)
			return r.Resp, nil
		}
		return nil, err
	}
	c.breakerFail(to)
	// The node cannot even answer the outcome query: treat it as down and
	// leave a repair record for Recover.
	c.noteDown(to)
	if how == undo {
		c.queueRepair(sc, to, repair{kind: repairRedo, id: id, req: raw})
		return nil, nil
	}
	c.queueRepair(sc, to, repair{kind: repairInDoubt, id: id, req: raw})
	return nil, fmt.Errorf("cluster: call to node %d in doubt: %w", to, err)
}

// retry is the one bounded retry loop: it re-sends wreq while the failure
// is transient (an injected fault or a timeout), at once and with no
// backoff, and returns the last error once the budget is spent. The caller
// owns idempotence (seal).
func (c *Cluster) retry(from, to int, wreq any) (any, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		resp, err := c.net.Call(from, to, wreq)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !fault.IsTransient(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// rawCall delivers recovery traffic over the raw stack with transient
// retries. Mutating requests get a fresh sequence envelope — repair crosses
// the same faulty network as maintenance. Unlike resilientCall it ignores
// the degraded set (Recover talks to nodes still marked down) and surfaces
// in-doubt outcomes as plain errors: Recover's work is idempotent, so the
// operator reruns it.
func (c *Cluster) rawCall(to int, req any) (any, error) {
	wreq, _ := c.seal(nil, req)
	return c.rawDeliver(to, wreq)
}

// rawDeliver is rawCall for a request that needs no envelope or already
// carries one.
func (c *Cluster) rawDeliver(to int, wreq any) (any, error) {
	return c.retry(netsim.Coordinator, to, wreq)
}

// undoCall delivers inv, the inverse of the applied request fwd, as a
// compensation of statement sc. An unreachable destination is absorbed (an
// absorbed call returns resp == nil with a nil error): the request is
// queued and replayed during Recover against the node's preserved state,
// or — durable — left to the node's own presumed abort. Under replication
// an absorbed undo is additionally mirrored to the destination's
// followers, whose shadows already hold the statement's forward writes.
func (c *Cluster) undoCall(sc *stmtScope, to int, inv, fwd any) error {
	resp, err := c.resilientCall(sc, undo, netsim.Coordinator, to, inv)
	if err == nil && resp == nil {
		c.mirrorAsIfApplied(sc, to, inv, fwd)
	}
	return err
}

// repairKind distinguishes what Recover must do with a queued request.
type repairKind uint8

const (
	// repairRedo is a compensating action that could not reach the node:
	// replay it (under its original sequence number, so a delivery that
	// did land is deduplicated).
	repairRedo repairKind = iota
	// repairInDoubt is forward work whose outcome is unknown and whose
	// statement was rolled back: if the node applied it, apply the inverse.
	repairInDoubt
)

type repair struct {
	kind repairKind
	id   uint64
	req  any
}

func (c *Cluster) noteDown(n int) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.downNodes[n] = true
}

func (c *Cluster) isDown(n int) bool {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	return c.downNodes[n]
}

func (c *Cluster) firstDown() (int, bool) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	best, found := 0, false
	for n := range c.downNodes {
		if !found || n < best {
			best, found = n, true
		}
	}
	return best, found
}

// queueRepair leaves r, work of scope sc (nil: none) that node n missed or
// may have applied, for Recover. A durable node recovers from its own log:
// its undecided transactions are aborted locally (ResolveAbort), which
// subsumes both queued compensations and in-doubt inversions, so queueing
// those as well would undo the same work twice — only a DDL's work, which
// runs in a scope without a transaction, is left for Recover to undo.
func (c *Cluster) queueRepair(sc *stmtScope, n int, r repair) {
	if c.cfg.Durability && (sc == nil || sc.tid != 0) {
		return
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.repairs[n] = append(c.repairs[n], r)
}

func (c *Cluster) takeRepairs(n int) []repair {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	rs := c.repairs[n]
	delete(c.repairs, n)
	return rs
}

// Degraded returns the nodes the coordinator currently considers down
// (sorted; empty when the cluster is healthy). A crash is discovered
// lazily, by the first delivery that fails against the crashed node.
func (c *Cluster) Degraded() []int {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	out := make([]int, 0, len(c.downNodes))
	for n := range c.downNodes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// failIfDegraded refuses DML while any node is down: every maintenance
// flow must reach all fragments of the affected structures, so failing
// fast (and letting the caller retry after Recover) beats starting work
// that is guaranteed to roll back.
func (c *Cluster) failIfDegraded() error {
	if down := c.Degraded(); len(down) > 0 {
		// With every down node failed over, the survivors hold a complete
		// copy of every structure: DML proceeds at full strength.
		if c.replServesComplete() {
			return nil
		}
		return fmt.Errorf("%w: nodes %v unavailable", ErrDegraded, down)
	}
	return nil
}

// MarkNodeDown tells the coordinator a node is unavailable without waiting
// for a delivery to fail against it (an external failure detector, or a
// test arranging a deterministic degraded state).
func (c *Cluster) MarkNodeDown(n int) error {
	if n < 0 || n >= c.NumNodes() {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	c.noteDown(n)
	return nil
}

// Recover repairs a restarted node and returns the cluster to service.
//
// With ReplicationFactor > 1 it is a re-replication round
// (ReplicateRepair), whatever the durability setting: the node's slots
// were promoted away at failover, so its own state is obsolete.
//
// Otherwise, in Durability mode it is per-node log replay: restart the
// node from its checkpoint + log tail and resolve its in-doubt
// transactions against the coordinator's decision log (commit if a
// decision was forced, local inverse replay otherwise — presumed abort).
// No other node is touched.
//
// Without durability, the legacy fail-stop-with-durable-storage model:
//
//  1. verify the node answers (it must have been restarted at the
//     transport/fault layer first);
//  2. drain the node's repair queue in order — replay compensating actions
//     that could not be delivered, and resolve in-doubt calls by querying
//     their sequence numbers and inverting any that were applied (their
//     statements rolled back at the surviving nodes);
//  3. clear the node from the degraded set;
//  4. once every node is back, rebuild the derived fragments (auxiliary
//     relations, global indexes, view fragments) of all recovered nodes
//     from the base relations, using the same gather/backfill machinery
//     DDL uses.
func (c *Cluster) Recover(n int) error {
	_, err := c.RecoverWithReport(n)
	return err
}

// RecoverWithReport is Recover returning the recovery cost accounting:
// what mode ran, pages read and replayed, repairs drained, in-doubt
// transactions resolved, and the I/O and message cost.
func (c *Cluster) RecoverWithReport(n int) (RecoveryReport, error) {
	if n < 0 || n >= c.NumNodes() {
		return RecoveryReport{}, fmt.Errorf("cluster: node %d out of range [0,%d)", n, c.NumNodes())
	}
	if c.replOn() {
		// Under replication the node's slots were (or will be) promoted
		// away; bringing it back is a re-replication round, not a replay —
		// replaying its log would resurrect primaries that now live on the
		// promoted followers.
		rep := RecoveryReport{Node: n, Mode: "rereplicate"}
		netBefore := c.tr.Stats()
		err := c.ReplicateRepair()
		rep.Messages = c.tr.Stats().Messages - netBefore.Messages
		return rep, err
	}
	h := c.lockGlobal()
	defer h.Release()
	c.breakerReset(n)
	if c.cfg.Durability {
		return c.recoverDurable(n)
	}
	rep := RecoveryReport{Node: n, Mode: "rebuild"}
	netBefore := c.tr.Stats()
	if _, err := c.rawDeliver(n, node.Ping{}); err != nil {
		return rep, fmt.Errorf("cluster: node %d not answering, restart it first: %w", n, err)
	}
	if err := c.drainRepairs(n, &rep); err != nil {
		rep.Messages = c.tr.Stats().Messages - netBefore.Messages
		return rep, err
	}
	c.dmu.Lock()
	delete(c.downNodes, n)
	c.needRebuild[n] = true
	stillDown := len(c.downNodes) > 0
	c.dmu.Unlock()
	if stillDown {
		// Derived rebuild needs every base fragment reachable; it runs
		// when the last node recovers.
		rep.Messages = c.tr.Stats().Messages - netBefore.Messages
		return rep, nil
	}
	// Resolve any migration the failure interrupted before rebuilding
	// derived state: until the migration is driven to a decision the base
	// tables can hold stale copies (source rows after a committed cutover,
	// destination residue after an aborted one), and a rebuild from them
	// would bake duplicate join rows into the view fragments at homes the
	// misplaced-row scrub cannot distinguish from real rows.
	if err := c.resumeMigrationsLocked(); err != nil {
		rep.Messages = c.tr.Stats().Messages - netBefore.Messages
		return rep, err
	}
	c.dmu.Lock()
	pending := make([]int, 0, len(c.needRebuild))
	for rn := range c.needRebuild {
		pending = append(pending, rn)
	}
	c.needRebuild = map[int]bool{}
	c.dmu.Unlock()
	sort.Ints(pending)
	for _, rn := range pending {
		pages, err := c.rebuildDerived(rn)
		rep.PageIOs += pages
		if err != nil {
			rep.Messages = c.tr.Stats().Messages - netBefore.Messages
			return rep, fmt.Errorf("cluster: rebuilding node %d: %w", rn, err)
		}
	}
	rep.Messages = c.tr.Stats().Messages - netBefore.Messages
	return rep, nil
}

// drainRepairs settles the work queued for node n while it was down, in
// order, counting it in rep: compensations are replayed, in-doubt requests
// the node turns out to have applied are inverted. On failure the
// unprocessed tail goes back to the queue, so a rerun of Recover picks up
// where this one stopped.
func (c *Cluster) drainRepairs(n int, rep *RecoveryReport) error {
	repairs := c.takeRepairs(n)
	drain := func(r repair) error {
		switch r.kind {
		case repairRedo:
			if err := c.redo(n, r); err != nil {
				return err
			}
		case repairInDoubt:
			resp, err := c.rawDeliver(n, node.SeqQuery{ID: r.id})
			if err != nil {
				return fmt.Errorf("cluster: resolving in-doubt %T at node %d: %w", r.req, n, err)
			}
			sq := resp.(node.SeqQueryResult)
			if !sq.Applied {
				return nil
			}
			inv := node.InverseOf(r.req, sq.Resp)
			if inv == nil {
				return nil // derived structure: the rebuild repairs it
			}
			if _, err := c.rawCall(n, inv); err != nil {
				return fmt.Errorf("cluster: inverting in-doubt %T at node %d: %w", r.req, n, err)
			}
		}
		return nil
	}
	for i, r := range repairs {
		if err := drain(r); err != nil {
			c.dmu.Lock()
			c.repairs[n] = append(repairs[i:len(repairs):len(repairs)], c.repairs[n]...)
			c.dmu.Unlock()
			return err
		}
		rep.RepairsReplayed++
	}
	return nil
}

// redo replays the queued compensation r at node n under its original
// sequence id: if it did land before the crash, the node's dedup absorbs
// it. A fragment drop counts as done when the fragment is already gone.
func (c *Cluster) redo(n int, r repair) error {
	if _, err := c.rawDeliver(n, node.Seq{ID: r.id, Req: r.req}); err != nil && !errors.Is(err, node.ErrNoFragment) {
		return fmt.Errorf("cluster: replaying compensation %T at node %d: %w", r.req, n, err)
	}
	return nil
}

// queueDrop leaves req for Recover at node n, which is down, when req drops
// a fragment: a DDL drop, the undo of a failed create, or the mirror of
// either to a shadow. Other work a down node misses needs no queueing here.
func (c *Cluster) queueDrop(sc *stmtScope, n int, req any) {
	switch req.(type) {
	case node.DropFragment, node.DropGlobalIndexFrag:
		c.queueRepair(sc, n, repair{kind: repairRedo, id: c.seq.Add(1), req: req})
	}
}

// pageCount converts a row count to pages under the cluster's geometry.
func (c *Cluster) pageCount(rows int) int64 {
	if rows <= 0 {
		return 0
	}
	return int64((rows + c.cfg.PageRows - 1) / c.cfg.PageRows)
}

// rebuildDerived reconstructs every derived fragment homed at node n —
// auxiliary relations, view fragments and global-index fragments — from the
// base relations, reusing the DDL backfill machinery. Repair work is
// unmetered, like DDL, so the returned tally accounts its page traffic
// explicitly (base pages scanned + derived pages written): the cost the
// durability layer's log replay is measured against.
func (c *Cluster) rebuildDerived(n int) (int64, error) {
	var pages int64
	cat := c.Catalog()
	// replace refills node n's fragment with its share of the content.
	replace := func(spec fragSpec, content []types.Tuple) error {
		buckets, err := cat.Partitioner().Spread(spec.Schema, spec.PartCol, content)
		if err != nil {
			return err
		}
		if _, err := c.rawCall(n, spec.dropReq(spec.Name)); err != nil {
			return err
		}
		if _, err := c.rawCall(n, spec.createReq(spec.Name, c.cfg.PageRows)); err != nil {
			return err
		}
		mine := buckets[n]
		pages += c.pageCount(len(mine))
		if len(mine) == 0 {
			return nil
		}
		_, err = c.rawCall(n, node.Insert{Frag: spec.Name, Tuples: mine, Unmetered: true})
		return err
	}
	for _, group := range fragGroups(cat) {
		if v := group[0].View; v != nil {
			for _, table := range v.Tables {
				if ts, ok := c.st.Get(table); ok {
					pages += c.pageCount(int(ts.Rows))
				}
			}
			content, err := computeJoin(cat, v, c.gather)
			if err != nil {
				return pages, err
			}
			if err := replace(group[0], content); err != nil {
				return pages, err
			}
			continue
		}
		if len(group) == 1 {
			continue // a base table without derived structures
		}
		rows, err := c.gather(group[0].Name)
		if err != nil {
			return pages, err
		}
		pages += c.pageCount(len(rows))
		for _, spec := range group[1:] {
			if spec.GI {
				giPages, err := c.rebuildGIFrag(cat, spec, n)
				pages += giPages
				if err != nil {
					return pages, err
				}
				continue
			}
			projected, err := projectForAuxRel(spec.Table, spec.AR, rows)
			if err != nil {
				return pages, err
			}
			if err := replace(spec, projected); err != nil {
				return pages, err
			}
		}
	}
	return pages, nil
}

// rebuildGIFrag reconstructs node n's fragment of one global index of cat
// by scanning every base fragment for entries homed at n, returning the
// page tally (scans read + entries written).
func (c *Cluster) rebuildGIFrag(cat *catalog.Catalog, gi fragSpec, n int) (int64, error) {
	var pages int64
	name, base := gi.Name, gi.Table
	if _, err := c.rawCall(n, gi.dropReq(name)); err != nil {
		return pages, err
	}
	if _, err := c.rawCall(n, gi.createReq(name, c.cfg.PageRows)); err != nil {
		return pages, err
	}
	ci := base.Schema.MustColIndex(gi.GICol)
	for src := 0; src < c.NumNodes(); src++ {
		resp, err := c.rawDeliver(src, node.Scan{Frag: base.Name, Unmetered: true})
		if err != nil {
			return pages, err
		}
		rr := resp.(node.RowsResult)
		pages += c.pageCount(len(rr.Tuples))
		var vals []types.Value
		var gs []storage.GlobalRowID
		for i, tup := range rr.Tuples {
			v := tup[ci]
			if cat.Partitioner().NodeFor(v) != n {
				continue
			}
			vals = append(vals, v)
			gs = append(gs, storage.GlobalRowID{Node: int32(src), Row: rr.Rows[i]})
		}
		if len(vals) == 0 {
			continue
		}
		pages += c.pageCount(len(vals))
		if _, err := c.rawCall(n, node.GIInsertBatch{GI: name, Vals: vals, Gs: gs}); err != nil {
			return pages, err
		}
	}
	return pages, nil
}

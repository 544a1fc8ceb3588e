package node

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"joinview/internal/buffer"
	"joinview/internal/gindex"
	"joinview/internal/storage"
	"joinview/internal/wal"
)

// EnableDurability attaches a durable store (write-ahead log + checkpoint
// area) to the node. recsPerPage sets the log-page geometry (defaults like
// wal.NewLog); ckptEvery > 0 takes an automatic checkpoint after that many
// redo records. Must be called before the node does any work.
func (n *DataNode) EnableDurability(recsPerPage, ckptEvery int) {
	if recsPerPage <= 0 {
		recsPerPage = storage.DefaultPageRows
	}
	n.store = wal.NewStore(n.meter, recsPerPage)
	n.logPageRows = recsPerPage
	n.ckptEvery = ckptEvery
	n.pending = map[uint64]uint64{}
}

// Durable reports whether the node has a durable store attached.
func (n *DataNode) Durable() bool { return n.store != nil }

// RetainedLog returns the records the node's write-ahead log still holds,
// in log order (inspection and tests; nil without a durable store).
func (n *DataNode) RetainedLog() []wal.Record {
	if n.store == nil {
		return nil
	}
	return n.store.Log.All()
}

// logRedo appends a redo record for an applied Seq request and drives the
// automatic checkpoint. Called only from the Seq path, so replay (which
// re-executes unwrapped requests) never re-logs.
func (n *DataNode) logRedo(tid, seq uint64, req, resp any) error {
	lsn := n.store.Log.Append(wal.Record{Kind: wal.KindRedo, TID: tid, Seq: seq, Req: req, Resp: resp})
	if tid != 0 {
		if _, ok := n.pending[tid]; !ok {
			n.pending[tid] = lsn
		}
	}
	n.recsSinceCkpt++
	if n.ckptEvery > 0 && n.recsSinceCkpt >= n.ckptEvery {
		if _, err := n.checkpoint(); err != nil {
			return fmt.Errorf("node %d: auto checkpoint: %w", n.id, err)
		}
	}
	return nil
}

// minPendingLSN returns the earliest first-record LSN among undecided
// transactions (0 when none are pending): the log must stay replayable from
// there so ResolveAbort can still invert their records.
func (n *DataNode) minPendingLSN() uint64 {
	var minLSN uint64
	for _, lsn := range n.pending {
		if minLSN == 0 || lsn < minLSN {
			minLSN = lsn
		}
	}
	return minLSN
}

// checkpoint snapshots the node's entire state into the durable store and
// reclaims the covered log prefix.
func (n *DataNode) checkpoint() (CheckpointResult, error) {
	if n.store == nil {
		return CheckpointResult{}, fmt.Errorf("node %d: durability not enabled", n.id)
	}
	ck := &wal.Checkpoint{
		LSN:       n.store.Log.LastLSN(),
		Frags:     make(map[string]storage.FragmentSnapshot, len(n.frags)),
		GIdx:      make(map[string]gindex.Snapshot, len(n.gidx)),
		Seen:      maps.Clone(n.seen),
		SeenOrder: append([]uint64(nil), n.seenOrder...),
	}
	pages := 0
	for name, f := range n.frags {
		ck.Frags[name] = f.Snapshot()
		pages += f.Pages()
	}
	for name, g := range n.gidx {
		s := g.Snapshot()
		ck.GIdx[name] = s
		pages += (len(s.Entries) + n.logPageRows - 1) / n.logPageRows
	}
	if pages == 0 {
		pages = 1 // the image header still costs a page
	}
	ck.Pages = pages
	n.store.SetCheckpoint(ck, n.minPendingLSN())
	n.recsSinceCkpt = 0
	return CheckpointResult{LSN: ck.LSN, Pages: pages}, nil
}

// crash fail-stops the node: every volatile structure is discarded; the
// durable store survives. The meter is volatile in a real system but kept
// here — experiments read recovery cost from its deltas.
func (n *DataNode) crash() {
	n.frags = map[string]*storage.Fragment{}
	n.gidx = map[string]*gindex.Fragment{}
	n.seen = map[uint64]any{}
	n.seenOrder = nil
	n.pending = map[uint64]uint64{}
	if n.pool != nil {
		n.pool = buffer.New(n.poolPages)
	}
	n.recsSinceCkpt = 0
	n.wiped = true
}

// restart recovers a crashed node from its durable store: reload the last
// checkpoint image, derive the in-doubt set from every retained record, and
// replay the log tail in LSN order. Recovery I/O is charged to the meter:
// checkpoint pages and log-tail pages as log I/O, re-executed operations at
// their normal cost.
func (n *DataNode) restart() (RestartResult, error) {
	if n.store == nil {
		return RestartResult{}, fmt.Errorf("node %d: durability not enabled", n.id)
	}
	n.crash()
	n.wiped = false
	res := RestartResult{}

	var fromLSN uint64
	if ck := n.store.Checkpoint(); ck != nil {
		fromLSN = ck.LSN
		res.CheckpointLSN = ck.LSN
		res.CheckpointPages = ck.Pages
		n.meter.LogPages(int64(ck.Pages))
		for name, fs := range ck.Frags {
			f, err := storage.RestoreFragment(fs, n.meter, n.pool)
			if err != nil {
				return RestartResult{}, fmt.Errorf("node %d: restore fragment %q: %w", n.id, name, err)
			}
			n.frags[name] = f
		}
		for name, gs := range ck.GIdx {
			n.gidx[name] = gindex.Restore(gs, n.meter)
		}
		for id, resp := range ck.Seen {
			n.seen[id] = resp
		}
		n.seenOrder = append([]uint64(nil), ck.SeenOrder...)
	}

	// The in-doubt set comes from every retained record — including those
	// below the checkpoint LSN, whose effects are inside the image but whose
	// outcome is still open (checkpoint truncation is bounded by them).
	for _, rec := range n.store.Log.All() {
		switch rec.Kind {
		case wal.KindRedo, wal.KindPrepare:
			if rec.TID != 0 {
				if _, ok := n.pending[rec.TID]; !ok {
					n.pending[rec.TID] = rec.LSN
				}
			}
		case wal.KindCommit, wal.KindAbort:
			delete(n.pending, rec.TID)
		}
	}

	tail := n.store.Log.TailFrom(fromLSN)
	res.LogPagesRead = (len(tail) + n.logPageRows - 1) / n.logPageRows
	for _, rec := range tail {
		if rec.Kind != wal.KindRedo {
			continue
		}
		if _, err := n.Handle(replayForm(rec)); err != nil {
			return RestartResult{}, fmt.Errorf("node %d: replay %s: %w", n.id, rec, err)
		}
		if rec.Seq != 0 {
			n.remember(rec.Seq, rec.Resp)
		}
		res.RecordsReplayed++
	}
	n.dropVersions()
	res.InDoubt = n.inDoubt()
	return res, nil
}

// dropVersions empties every fragment's version log. Recovery re-applies
// logged requests in forms that keep some epochs and drop others (replayForm
// turns an Insert into an epoch-less RestoreRows while deletes and
// InverseOf's compensations keep theirs), so the log it leaves is unmatched:
// a snapshot below a surviving delete record would resurrect an aborted
// statement's rows on this node alone. Recovery runs under the coordinator's
// global exclusive lock with no snapshot pinned, so no reader needs the
// versions; the live state is the committed one.
func (n *DataNode) dropVersions() {
	for _, f := range n.frags {
		f.TruncateVersions(math.MaxUint64)
	}
}

// replayForm converts a logged request into its deterministic replay form.
// Row-id-allocating and victim-choosing requests are replayed from the
// recorded outcome, so replay lands tuples at their original row ids (global
// index entries reference them) and deletes the original victims.
func replayForm(rec wal.Record) any {
	switch r := rec.Req.(type) {
	case Insert:
		if ir, ok := rec.Resp.(InsertResult); ok {
			tuples := r.Tuples
			return RestoreRows{Frag: r.Frag, Rows: ir.Rows, Tuples: tuples}
		}
	case DeleteMatch:
		if dr, ok := rec.Resp.(DeleteResult); ok {
			return DeleteRows{Frag: r.Frag, Rows: dr.Rows}
		}
	}
	return rec.Req
}

// inDoubt lists undecided transactions in ascending TID order.
func (n *DataNode) inDoubt() []uint64 {
	out := make([]uint64, 0, len(n.pending))
	for tid := range n.pending {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// prepare logs PREPARE for a transaction and forces the log — the node's
// yes vote is durable before it is given.
func (n *DataNode) prepare(tid uint64) error {
	if n.store == nil {
		return fmt.Errorf("node %d: durability not enabled", n.id)
	}
	lsn := n.store.Log.Append(wal.Record{Kind: wal.KindPrepare, TID: tid})
	if _, ok := n.pending[tid]; !ok {
		n.pending[tid] = lsn
	}
	n.store.Log.Force()
	return nil
}

// decide logs the coordinator's decision and forgets the transaction. The
// record is not forced: under presumed abort the coordinator's log is the
// authority, so losing a lazy decision record only costs a future query.
func (n *DataNode) decide(tid uint64, commit bool) {
	if n.store != nil {
		kind := wal.KindAbort
		if commit {
			kind = wal.KindCommit
		}
		n.store.Log.Append(wal.Record{Kind: kind, TID: tid})
	}
	delete(n.pending, tid)
}

// resolveAbort locally undoes an in-doubt transaction after a restart:
// apply the inverse of each of the TID's retained redo records in reverse
// LSN order. Each applied inverse is logged under the same TID before the
// final ABORT, which makes the operation idempotent across re-crashes:
// replaying a partially-aborted log and re-running resolveAbort composes to
// the same pre-transaction state (the inverse of an already-logged undo
// record cancels against it).
func (n *DataNode) resolveAbort(tid uint64) error {
	if n.store == nil {
		return fmt.Errorf("node %d: durability not enabled", n.id)
	}
	var recs []wal.Record
	for _, rec := range n.store.Log.All() {
		if rec.Kind == wal.KindRedo && rec.TID == tid {
			recs = append(recs, rec)
		}
	}
	for i := len(recs) - 1; i >= 0; i-- {
		inv := InverseOf(recs[i].Req, recs[i].Resp)
		if inv == nil {
			continue
		}
		resp, err := n.Handle(inv)
		if err != nil {
			return fmt.Errorf("node %d: abort tid %d: undo %T: %w", n.id, tid, inv, err)
		}
		n.store.Log.Append(wal.Record{Kind: wal.KindRedo, TID: tid, Req: inv, Resp: resp})
	}
	n.store.Log.Append(wal.Record{Kind: wal.KindAbort, TID: tid})
	n.store.Log.Force()
	delete(n.pending, tid)
	n.dropVersions()
	return nil
}

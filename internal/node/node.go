// Package node implements a data-server node of the parallel RDBMS. Each
// node owns fragments of base relations, auxiliary relations, materialized
// views and global indexes, and executes purely local operations in
// response to typed requests. Nodes never call other nodes: the maintenance
// strategies orchestrate cross-node flows from the coordinator, which keeps
// the channel transport deadlock-free and the message accounting explicit.
package node

import (
	"errors"
	"fmt"

	"joinview/internal/buffer"
	"joinview/internal/exec"
	"joinview/internal/expr"
	"joinview/internal/gindex"
	"joinview/internal/netsim"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// DataNode is one data server. Access is serialized by the transport's
// link (every netsim.Link runs one request per node at a time).
type DataNode struct {
	id        int
	meter     *storage.Meter
	memPages  int
	pool      *buffer.Pool
	poolPages int
	frags     map[string]*storage.Fragment
	gidx      map[string]*gindex.Fragment

	// seen caches the responses of successfully applied Seq-wrapped
	// requests so retried deliveries (lost reply, timeout, duplicate) are
	// answered without re-executing. seenOrder bounds the cache FIFO:
	// retries arrive promptly, so only the recent window matters.
	seen      map[uint64]any
	seenOrder []uint64

	// Durability (nil store = the legacy fail-stop-with-durable-storage
	// model, where a crash loses nothing and recovery is repair + rebuild).
	store         *wal.Store
	logPageRows   int
	ckptEvery     int
	recsSinceCkpt int
	pending       map[uint64]uint64 // TID -> LSN of its first log record
	wiped         bool              // crashed and not yet restarted
}

// seqCacheSize bounds the per-node dedup cache. Retries happen within a
// statement, so a window of recent sequence numbers is sufficient.
const seqCacheSize = 4096

// New creates an empty node. memPages is the sort memory M (pages) used by
// sort-merge joins; it defaults to 10 if non-positive (the paper's M).
func New(id, memPages int) *DataNode {
	if memPages <= 0 {
		memPages = 10
	}
	return &DataNode{
		id:       id,
		meter:    &storage.Meter{},
		memPages: memPages,
		frags:    map[string]*storage.Fragment{},
		gidx:     map[string]*gindex.Fragment{},
		seen:     map[uint64]any{},
	}
}

// SetBufferPages attaches a buffer pool of the given page capacity to the
// node (0 disables caching simulation). Call before any fragments are
// created; existing fragments keep their previous pool.
func (n *DataNode) SetBufferPages(pages int) {
	n.pool = buffer.New(pages)
	n.poolPages = pages
}

// PoolStatsSnapshot returns the node's buffer-pool counters (zero when no
// pool is attached).
func (n *DataNode) PoolStatsSnapshot() buffer.Stats {
	return n.pool.Stats()
}

// ResetPoolStats zeroes the pool counters, keeping cached pages resident
// (so warm-cache windows can be measured).
func (n *DataNode) ResetPoolStats() {
	n.pool.ResetStats()
}

// ID returns the node id.
func (n *DataNode) ID() int { return n.id }

// MemPages returns the node's sort memory M in pages.
func (n *DataNode) MemPages() int { return n.memPages }

// Meter returns the node's I/O meter.
func (n *DataNode) Meter() *storage.Meter { return n.meter }

// Handler adapts the node to the transport.
func (n *DataNode) Handler() netsim.Handler {
	return func(req any) (any, error) { return n.Handle(req) }
}

// ErrNoFragment marks a request that names a fragment or global-index
// fragment the node does not hold. It survives every link (the TCP link
// carries it as an error code), so idempotent cleanup can tell "already
// gone" from a real failure with errors.Is.
var ErrNoFragment = errors.New("no such fragment")

func (n *DataNode) frag(name string) (*storage.Fragment, error) {
	f, ok := n.frags[name]
	if !ok {
		return nil, fmt.Errorf("node %d: fragment %q: %w", n.id, name, ErrNoFragment)
	}
	return f, nil
}

func (n *DataNode) gi(name string) (*gindex.Fragment, error) {
	g, ok := n.gidx[name]
	if !ok {
		return nil, fmt.Errorf("node %d: global index %q: %w", n.id, name, ErrNoFragment)
	}
	return g, nil
}

// remember caches a sequence number's response, evicting the oldest entry
// once the cache is full.
func (n *DataNode) remember(id uint64, resp any) {
	if len(n.seenOrder) >= seqCacheSize {
		delete(n.seen, n.seenOrder[0])
		n.seenOrder = n.seenOrder[1:]
	}
	n.seen[id] = resp
	n.seenOrder = append(n.seenOrder, id)
}

// Handle dispatches one request.
func (n *DataNode) Handle(req any) (any, error) {
	if n.wiped {
		// A crashed node has no state to serve from; accepting anything
		// before recovery would silently run against an empty database.
		switch req.(type) {
		case CrashReq, RestartReq:
		default:
			return nil, fmt.Errorf("node %d: crashed, awaiting restart", n.id)
		}
	}
	switch r := req.(type) {
	case Seq:
		// At-most-once execution: a duplicate delivery (retry after a lost
		// reply or a retransmission race) is answered from the cache
		// without re-running the wrapped request. Failures are not cached —
		// the request was not applied, so a retry must execute it.
		if resp, applied := n.seen[r.ID]; applied {
			return resp, nil
		}
		resp, err := n.Handle(r.Req)
		if err != nil {
			return nil, err
		}
		n.remember(r.ID, resp)
		if n.store != nil && IsMutating(r.Req) {
			if err := n.logRedo(r.TID, r.ID, r.Req, resp); err != nil {
				return nil, err
			}
		}
		return resp, nil

	case SeqQuery:
		resp, applied := n.seen[r.ID]
		return SeqQueryResult{Applied: applied, Resp: resp}, nil

	case Ping:
		return Ack{}, nil

	case CreateFragment:
		if _, dup := n.frags[r.Name]; dup {
			return nil, fmt.Errorf("node %d: fragment %q already exists", n.id, r.Name)
		}
		f, err := storage.NewFragment(r.Schema, storage.Config{
			Name:       r.Name,
			ClusterCol: r.ClusterCol,
			PageRows:   r.PageRows,
			Meter:      n.meter,
			Pool:       n.pool,
		})
		if err != nil {
			return nil, err
		}
		n.frags[r.Name] = f
		return Ack{}, nil

	case CreateIndex:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		if err := f.CreateIndex(r.Name, r.Col); err != nil {
			return nil, err
		}
		return Ack{}, nil

	case CreateGlobalIndex:
		if _, dup := n.gidx[r.Name]; dup {
			return nil, fmt.Errorf("node %d: global index %q already exists", n.id, r.Name)
		}
		n.gidx[r.Name] = gindex.New(n.meter, r.DistClustered)
		return Ack{}, nil

	case Insert:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		f.TruncateVersions(r.GCFloor)
		res := InsertResult{Rows: make([]storage.RowID, 0, len(r.Tuples))}
		for _, t := range r.Tuples {
			var row storage.RowID
			if r.Unmetered {
				row, err = f.InsertUnmetered(t)
			} else {
				row, err = f.InsertEpoch(t, r.Epoch)
			}
			if err != nil {
				return nil, fmt.Errorf("node %d: insert into %q: %w", n.id, r.Frag, err)
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil

	case DeleteRows:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		f.TruncateVersions(r.GCFloor)
		res := DeleteResult{}
		for _, row := range r.Rows {
			if t, ok := f.DeleteEpoch(row, r.Epoch); ok {
				res.Tuples = append(res.Tuples, t)
				res.Rows = append(res.Rows, row)
			}
		}
		return res, nil

	case RestoreRows:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		if len(r.Rows) != len(r.Tuples) {
			return nil, fmt.Errorf("node %d: RestoreRows: %d rows vs %d tuples", n.id, len(r.Rows), len(r.Tuples))
		}
		f.TruncateVersions(r.GCFloor)
		for i, row := range r.Rows {
			if err := f.InsertAtEpoch(row, r.Tuples[i], r.Epoch); err != nil {
				return nil, fmt.Errorf("node %d: restore into %q: %w", n.id, r.Frag, err)
			}
		}
		return Ack{}, nil

	case DeleteMatch:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		f.TruncateVersions(r.GCFloor)
		res := DeleteResult{}
		for _, t := range r.Tuples {
			rows, err := f.FindRows(r.HintCol, t)
			if err != nil {
				return nil, err
			}
			if len(rows) == 0 {
				continue
			}
			if del, ok := f.DeleteEpoch(rows[0], r.Epoch); ok {
				res.Tuples = append(res.Tuples, del)
				res.Rows = append(res.Rows, rows[0])
			}
		}
		return res, nil

	case LocateMatch:
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		res := RowsResult{}
		used := map[storage.RowID]bool{}
		for _, t := range r.Tuples {
			rows, err := f.FindRows(r.HintCol, t)
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				if used[row] {
					continue
				}
				used[row] = true
				res.Rows = append(res.Rows, row)
				res.Tuples = append(res.Tuples, t)
				break
			}
		}
		return res, nil

	case Probe:
		return n.probe(r)

	case FetchJoin:
		return n.fetchJoin(r)

	case GIInsertBatch:
		g, err := n.gi(r.GI)
		if err != nil {
			return nil, err
		}
		if len(r.Vals) != len(r.Gs) {
			return nil, fmt.Errorf("node %d: GIInsertBatch: %d values vs %d row ids", n.id, len(r.Vals), len(r.Gs))
		}
		for i, v := range r.Vals {
			if r.Metered {
				g.Insert(v, r.Gs[i])
			} else {
				g.InsertUnmetered(v, r.Gs[i])
			}
		}
		return Ack{}, nil

	case GIDeleteBatch:
		g, err := n.gi(r.GI)
		if err != nil {
			return nil, err
		}
		if len(r.Vals) != len(r.Gs) {
			return nil, fmt.Errorf("node %d: GIDeleteBatch: %d values vs %d row ids", n.id, len(r.Vals), len(r.Gs))
		}
		res := GIDeletedBatch{OK: make([]bool, len(r.Vals))}
		for i, v := range r.Vals {
			res.OK[i] = g.Delete(v, r.Gs[i])
		}
		return res, nil

	case GILookup:
		g, err := n.gi(r.GI)
		if err != nil {
			return nil, err
		}
		return GIRows{IDs: g.Lookup(r.Val)}, nil

	case GIScan:
		g, err := n.gi(r.GI)
		if err != nil {
			return nil, err
		}
		res := GIScanResult{}
		g.Scan(func(v types.Value, grid storage.GlobalRowID) bool {
			res.Vals = append(res.Vals, v)
			res.Gs = append(res.Gs, grid)
			return true
		})
		return res, nil

	case Scan:
		return n.scan(r)

	case AggApply:
		return n.aggApply(r)

	case DropFragment:
		f, ok := n.frags[r.Name]
		if !ok {
			return nil, fmt.Errorf("node %d: dropping fragment %q: %w", n.id, r.Name, ErrNoFragment)
		}
		delete(n.frags, r.Name)
		f.ReleasePages()
		return Ack{}, nil

	case DropGlobalIndexFrag:
		if _, ok := n.gidx[r.Name]; !ok {
			return nil, fmt.Errorf("node %d: dropping global index %q: %w", n.id, r.Name, ErrNoFragment)
		}
		delete(n.gidx, r.Name)
		return Ack{}, nil

	case PromoteSlots:
		return n.promoteSlots(r)

	case GIPromoteSlots:
		src, err := n.gi(r.Src)
		if err != nil {
			return nil, err
		}
		dst, err := n.gi(r.Dst)
		if err != nil {
			return nil, err
		}
		want := slotSet(r.Slots)
		var vals []types.Value
		var gs []storage.GlobalRowID
		src.Scan(func(v types.Value, g storage.GlobalRowID) bool {
			if want[int(v.Hash()%uint64(r.Mod))] {
				vals = append(vals, v)
				gs = append(gs, g)
			}
			return true
		})
		for i, v := range vals {
			src.DeleteUnmetered(v, gs[i])
			dst.InsertUnmetered(v, gs[i])
		}
		return Ack{}, nil

	case GIScrubNode:
		g, err := n.gi(r.GI)
		if err != nil {
			return nil, err
		}
		var vals []types.Value
		var gs []storage.GlobalRowID
		g.Scan(func(v types.Value, grid storage.GlobalRowID) bool {
			if int(grid.Node) == r.Node {
				vals = append(vals, v)
				gs = append(gs, grid)
			}
			return true
		})
		for i, v := range vals {
			g.DeleteUnmetered(v, gs[i])
		}
		return GIScrubbed{Removed: len(vals)}, nil

	case FragInfo:
		if r.GI {
			g, err := n.gi(r.Frag)
			if err != nil {
				return nil, err
			}
			return FragInfoResult{Len: g.Len()}, nil
		}
		f, err := n.frag(r.Frag)
		if err != nil {
			return nil, err
		}
		return FragInfoResult{Len: f.Len(), Pages: f.Pages()}, nil

	case Prepare:
		if err := n.prepare(r.TID); err != nil {
			return nil, err
		}
		return Ack{}, nil

	case Decide:
		n.decide(r.TID, r.Commit)
		return Ack{}, nil

	case ResolveAbort:
		if err := n.resolveAbort(r.TID); err != nil {
			return nil, err
		}
		return Ack{}, nil

	case InDoubtReq:
		return InDoubtResult{TIDs: n.inDoubt()}, nil

	case CheckpointReq:
		return n.checkpoint()

	case CrashReq:
		if n.store == nil {
			return nil, fmt.Errorf("node %d: cannot crash: durability not enabled", n.id)
		}
		n.crash()
		return Ack{}, nil

	case RestartReq:
		return n.restart()

	default:
		return nil, fmt.Errorf("node %d: unknown request type %T", n.id, req)
	}
}

// scan answers the one read request (see Scan for its three modes).
func (n *DataNode) scan(r Scan) (any, error) {
	f, err := n.frag(r.Frag)
	if err != nil {
		return nil, err
	}
	var res RowsResult
	if r.Pred == nil {
		res = RowsResult{Tuples: make([]types.Tuple, 0, f.Len()), Rows: make([]storage.RowID, 0, f.Len())}
	}
	collect := func(row storage.RowID, t types.Tuple) bool {
		res.Rows = append(res.Rows, row)
		res.Tuples = append(res.Tuples, t)
		return true
	}
	switch {
	case r.Pred != nil && (r.Epoch != 0 || r.Unmetered):
		return nil, fmt.Errorf("node %d: scan of %q: a predicate scan reads the live state, metered", n.id, r.Frag)
	case r.Pred != nil:
		err = f.ScanWhere(expr.Cols(r.Pred, f.Schema()), func(t types.Tuple) (bool, error) {
			return expr.Matches(r.Pred, f.Schema(), t)
		}, collect)
	case r.Unmetered:
		f.ScanUnmetered(r.Epoch, collect)
	default:
		f.SnapshotScan(r.Epoch, collect)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (n *DataNode) probe(r Probe) (any, error) {
	f, err := n.frag(r.Frag)
	if err != nil {
		return nil, err
	}
	algo := r.Algo
	if algo == AlgoAuto {
		algo = n.chooseAlgo(f, r)
	}
	var out []types.Tuple
	switch algo {
	case AlgoIndex:
		out, err = exec.IndexNestedLoops(r.Delta, r.DeltaKey, f, r.FragCol)
	case AlgoSortMerge:
		out, err = exec.SortMerge(r.Delta, r.DeltaKey, f, r.FragCol, n.memPages)
	default:
		return nil, fmt.Errorf("node %d: bad probe algorithm %v", n.id, r.Algo)
	}
	if err != nil {
		return nil, err
	}
	return Probed{Tuples: out}, nil
}

// chooseAlgo compares the estimated I/O of index nested loops against
// sort-merge, the §3.2 crossover ("if |A| is large enough ... the sort
// merge algorithm is preferable to index nested loops").
func (n *DataNode) chooseAlgo(f *storage.Fragment, r Probe) Algo {
	fanout := r.FanoutHint
	if fanout < 1 {
		fanout = 1
	}
	pages := f.Pages()
	var smCost int
	if col, ok := f.Clustered(); ok && col == r.FragCol {
		smCost = pages
	} else {
		smCost = pages * exec.CeilLog(n.memPages, pages)
	}
	inlCost := len(r.Delta) // one SEARCH per delta tuple
	if col, ok := f.Clustered(); !ok || col != r.FragCol {
		// Non-clustered access also pays one FETCH per expected match.
		inlCost += int(float64(len(r.Delta)) * fanout)
	}
	if smCost < inlCost {
		return AlgoSortMerge
	}
	return AlgoIndex
}

// aggApply adjusts an aggregate-view fragment by signed group deltas.
func (n *DataNode) aggApply(r AggApply) (any, error) {
	f, err := n.frag(r.Frag)
	if err != nil {
		return nil, err
	}
	if len(r.Keys) != len(r.Deltas) {
		return nil, fmt.Errorf("node %d: AggApply: %d keys vs %d deltas", n.id, len(r.Keys), len(r.Deltas))
	}
	hintIdx := f.Schema().ColIndex(r.HintCol)
	if hintIdx < 0 || hintIdx >= r.GroupLen {
		return nil, fmt.Errorf("node %d: AggApply: hint column %q is not a group column", n.id, r.HintCol)
	}
	f.TruncateVersions(r.GCFloor)
	for gi, key := range r.Keys {
		delta := r.Deltas[gi]
		ms, _, err := f.LookupEqual(r.HintCol, key[hintIdx])
		if err != nil {
			return nil, err
		}
		var existing *storage.Match
		for i := range ms {
			if types.Tuple(ms[i].Tuple[:r.GroupLen]).Equal(key) {
				existing = &ms[i]
				break
			}
		}
		countDelta := delta[r.CountPos].I
		if existing == nil {
			if countDelta <= 0 {
				return nil, fmt.Errorf("node %d: aggregate view %q: delta for absent group %v (structures out of sync)", n.id, r.Frag, key)
			}
			if _, err := f.InsertEpoch(key.Concat(delta), r.Epoch); err != nil {
				return nil, err
			}
			continue
		}
		newCount := existing.Tuple[r.GroupLen+r.CountPos].I + countDelta
		if newCount < 0 {
			return nil, fmt.Errorf("node %d: aggregate view %q: group %v count would go negative", n.id, r.Frag, key)
		}
		if _, ok := f.DeleteEpoch(existing.Row, r.Epoch); !ok {
			return nil, fmt.Errorf("node %d: aggregate view %q: group row vanished", n.id, r.Frag)
		}
		if newCount == 0 {
			continue
		}
		updated := key.Clone()
		for ai := range delta {
			old := existing.Tuple[r.GroupLen+ai]
			nv, err := addValues(old, delta[ai])
			if err != nil {
				return nil, fmt.Errorf("node %d: aggregate view %q: %w", n.id, r.Frag, err)
			}
			updated = append(updated, nv)
		}
		if _, err := f.InsertEpoch(updated, r.Epoch); err != nil {
			return nil, err
		}
	}
	return Ack{}, nil
}

// slotSet builds a membership set from a slot list.
func slotSet(slots []int) map[int]bool {
	m := make(map[int]bool, len(slots))
	for _, s := range slots {
		m[s] = true
	}
	return m
}

// promoteSlots moves the rows of the given hash slots from the shadow
// fragment into the primary fragment — local data movement only, no I/O
// charged (failover repair).
func (n *DataNode) promoteSlots(r PromoteSlots) (any, error) {
	src, err := n.frag(r.Src)
	if err != nil {
		return nil, err
	}
	dst, err := n.frag(r.Dst)
	if err != nil {
		return nil, err
	}
	want := slotSet(r.Slots)
	var rows []storage.RowID
	var tuples []types.Tuple
	src.ScanUnmetered(0, func(row storage.RowID, t types.Tuple) bool {
		if r.PartIdx < 0 || r.PartIdx >= len(t) {
			return true
		}
		if want[int(t[r.PartIdx].Hash()%uint64(r.Mod))] {
			rows = append(rows, row)
			tuples = append(tuples, t)
		}
		return true
	})
	res := PromoteResult{Rows: make([]storage.RowID, 0, len(rows)), Tuples: tuples}
	for i, row := range rows {
		src.DeleteUnmetered(row)
		newRow, err := dst.InsertUnmetered(tuples[i])
		if err != nil {
			return nil, fmt.Errorf("node %d: promote into %q: %w", n.id, r.Dst, err)
		}
		res.Rows = append(res.Rows, newRow)
	}
	return res, nil
}

// addValues adds two numeric values, preserving the left operand's kind
// (NULL acts as zero of the right operand's kind).
func addValues(a, b types.Value) (types.Value, error) {
	if a.IsNull() {
		return b, nil
	}
	if b.IsNull() {
		return a, nil
	}
	switch {
	case a.K == types.KindInt && b.K == types.KindInt:
		return types.Int(a.I + b.I), nil
	case a.K == types.KindFloat && b.K == types.KindFloat:
		return types.Float(a.F + b.F), nil
	case a.K == types.KindInt && b.K == types.KindFloat:
		return types.Float(float64(a.I) + b.F), nil
	case a.K == types.KindFloat && b.K == types.KindInt:
		return types.Float(a.F + float64(b.I)), nil
	default:
		return types.Value{}, fmt.Errorf("cannot add %v and %v", a, b)
	}
}

// fetchJoin implements the fetch step of the global-index method: the K
// nodes holding matching tuples each receive the delta tuple plus the
// global row ids that live there, fetch those rows, and join.
func (n *DataNode) fetchJoin(r FetchJoin) (any, error) {
	f, err := n.frag(r.Frag)
	if err != nil {
		return nil, err
	}
	out := make([]types.Tuple, 0, len(r.Rows))
	for _, row := range r.Rows {
		t, ok := f.GetUnmetered(row)
		if !ok {
			return nil, fmt.Errorf("node %d: fetch-join: row %d missing in %q (global index out of sync)", n.id, row, r.Frag)
		}
		out = append(out, r.Delta.Concat(t))
	}
	// §3.1(e): distributed clustered -> matching rows share pages (charge
	// per page); otherwise one FETCH per row.
	if col, ok := f.Clustered(); ok && col == r.FragCol {
		if len(r.Rows) > 0 {
			pages := (len(r.Rows) + f.PageRows() - 1) / f.PageRows()
			n.meter.Fetch(int64(pages))
		}
	} else {
		n.meter.Fetch(int64(len(r.Rows)))
	}
	return Probed{Tuples: out}, nil
}

package node

import (
	"joinview/internal/storage"
	"joinview/internal/types"
)

// IsMutating reports whether a request changes node state, and therefore
// needs sequence-number dedup for safe retry and a redo record for
// durability. Reads are naturally idempotent and go unwrapped and unlogged.
// The two-phase-commit control requests (Prepare, Decide, ResolveAbort,
// CheckpointReq, CrashReq, RestartReq) write to the durable store but are
// idempotent by construction, so they are deliberately not listed.
func IsMutating(req any) bool {
	switch req.(type) {
	case Insert, DeleteRows, DeleteMatch, RestoreRows,
		GIInsertBatch, GIDeleteBatch, AggApply,
		CreateFragment, CreateIndex,
		CreateGlobalIndex, DropFragment, DropGlobalIndexFrag,
		PromoteSlots, GIPromoteSlots, GIScrubNode:
		return true
	}
	return false
}

// InverseOf builds the request that undoes an applied request, given the
// response the node produced for it. Nil means no exact inverse exists (the
// caller falls back to rebuilding the affected derived structure) or the
// request changed nothing. It is the only inverse algebra: the
// coordinator's statement rollback, a node's local ResolveAbort and
// Recover's in-doubt inversion all walk their logs through it.
//
// The inverse carries the forward request's Epoch: the statement failed, so
// the epoch is never published, and forward + undo version records cancel
// in every snapshot.
func InverseOf(req, resp any) any {
	switch r := req.(type) {
	case Insert:
		ir, ok := resp.(InsertResult)
		if !ok {
			return nil
		}
		return DeleteRows{Frag: r.Frag, Rows: ir.Rows, Epoch: r.Epoch}
	case RestoreRows:
		return DeleteRows{Frag: r.Frag, Rows: r.Rows, Epoch: r.Epoch}
	case DeleteRows:
		dr, ok := resp.(DeleteResult)
		if !ok {
			return nil
		}
		return RestoreRows{Frag: r.Frag, Rows: dr.Rows, Tuples: dr.Tuples, Epoch: r.Epoch}
	case DeleteMatch:
		dr, ok := resp.(DeleteResult)
		if !ok {
			return nil
		}
		return RestoreRows{Frag: r.Frag, Rows: dr.Rows, Tuples: dr.Tuples, Epoch: r.Epoch}
	case GIInsertBatch:
		return GIDeleteBatch{GI: r.GI, Vals: r.Vals, Gs: r.Gs}
	case GIDeleteBatch:
		gd, ok := resp.(GIDeletedBatch)
		if !ok || len(gd.OK) != len(r.Vals) {
			return nil
		}
		// Re-insert only the entries that existed and were removed.
		inv := GIInsertBatch{GI: r.GI, Metered: true}
		for i, ok := range gd.OK {
			if !ok {
				continue
			}
			inv.Vals = append(inv.Vals, r.Vals[i])
			inv.Gs = append(inv.Gs, r.Gs[i])
		}
		if len(inv.Vals) == 0 {
			return nil
		}
		return inv
	case AggApply:
		neg := r
		neg.Deltas = make([]types.Tuple, len(r.Deltas))
		for i, d := range r.Deltas {
			nd := make(types.Tuple, len(d))
			for j, v := range d {
				switch v.K {
				case types.KindInt:
					nd[j] = types.Int(-v.I)
				case types.KindFloat:
					nd[j] = types.Float(-v.F)
				default:
					nd[j] = v
				}
			}
			neg.Deltas[i] = nd
		}
		return neg
	case CreateFragment:
		return DropFragment{Name: r.Name}
	case CreateGlobalIndex:
		return DropGlobalIndexFrag{Name: r.Name}
	}
	return nil
}

// MirrorClass says how the layers that keep a second copy of a hash slot in
// step with its primary — follower shadows under replication, staging
// fragments under migration — treat an applied request.
type MirrorClass uint8

const (
	// MirrorNone: not a mutation (reads and control requests).
	MirrorNone MirrorClass = iota
	// MirrorSplit: a fragment or global-index mutation. Its elements are
	// split by hash slot and re-applied to each slot's copies.
	MirrorSplit
	// MirrorDDL: a fragment or index-fragment create/drop, forwarded under
	// the copy's name.
	MirrorDDL
	// MirrorNever: mutating, but deliberately not propagated. Secondary
	// indexes (CreateIndex) exist on primary fragments only; PromoteSlots,
	// GIPromoteSlots and GIScrubNode are failover's own edits of the copies.
	MirrorNever
)

// mutOp is what a split mutation does to its target, independent of the
// request type that carried it.
type mutOp uint8

const (
	opInsert mutOp = iota
	opDelete
	opAgg
	opGIInsert
	opGIDelete
)

// Mutation is an applied request in the form every slot-copy consumer
// needs: the structure it addressed, one partition value per element, and
// a way to rebuild the same effect for a subset of the elements under
// another fragment name. All fragment-mutating request types normalize to
// five operations; the original type is not needed past SplitMutation.
type Mutation struct {
	Class MirrorClass
	// Target is the fragment or global index the request addressed. GI
	// marks a global index, whose entries partition on their value (a
	// fragment's rows partition on one attribute of the tuple).
	Target string
	GI     bool

	op      mutOp
	metered bool          // the original charged insert I/O
	tuples  []types.Tuple // rows written or removed; AggApply group keys
	deltas  []types.Tuple // AggApply deltas, parallel to tuples
	agg     AggApply      // AggApply's scalar fields
	vals    []types.Value // global-index entries, parallel to gs
	gs      []storage.GlobalRowID
	rename  func(name string) any // MirrorDDL: the same DDL under another name
}

// SplitMutation normalizes one applied request and the response the node
// gave. Deletes carry their rows in the response (what was actually
// removed), so a missing or foreign response yields zero elements. It is
// the only place that knows which request types mutate which structure:
// a new mutating request type is classified here or fails the
// exhaustiveness test.
func SplitMutation(req, resp any) Mutation {
	switch r := req.(type) {
	case Insert:
		return Mutation{Class: MirrorSplit, Target: r.Frag, op: opInsert, metered: !r.Unmetered, tuples: r.Tuples}
	case RestoreRows:
		return Mutation{Class: MirrorSplit, Target: r.Frag, op: opInsert, tuples: r.Tuples}
	case DeleteRows:
		dr, _ := resp.(DeleteResult)
		return Mutation{Class: MirrorSplit, Target: r.Frag, op: opDelete, tuples: dr.Tuples}
	case DeleteMatch:
		dr, _ := resp.(DeleteResult)
		return Mutation{Class: MirrorSplit, Target: r.Frag, op: opDelete, tuples: dr.Tuples}
	case AggApply:
		m := Mutation{Class: MirrorSplit, Target: r.Frag, op: opAgg, tuples: r.Keys, deltas: r.Deltas}
		m.agg = AggApply{HintCol: r.HintCol, GroupLen: r.GroupLen, CountPos: r.CountPos}
		return m
	case GIInsertBatch:
		return giMutation(r.GI, opGIInsert, r.Metered, r.Vals, r.Gs)
	case GIDeleteBatch:
		return giMutation(r.GI, opGIDelete, true, r.Vals, r.Gs)
	case CreateFragment:
		return Mutation{Class: MirrorDDL, Target: r.Name, rename: func(n string) any { r.Name = n; return r }}
	case CreateGlobalIndex:
		return Mutation{Class: MirrorDDL, Target: r.Name, GI: true, rename: func(n string) any { r.Name = n; return r }}
	case DropFragment:
		return Mutation{Class: MirrorDDL, Target: r.Name, rename: func(n string) any { return DropFragment{Name: n} }}
	case DropGlobalIndexFrag:
		return Mutation{Class: MirrorDDL, Target: r.Name, GI: true, rename: func(n string) any { return DropGlobalIndexFrag{Name: n} }}
	case CreateIndex, PromoteSlots, GIPromoteSlots, GIScrubNode:
		return Mutation{Class: MirrorNever}
	}
	return Mutation{}
}

func giMutation(gi string, op mutOp, metered bool, vals []types.Value, gs []storage.GlobalRowID) Mutation {
	if len(vals) != len(gs) {
		vals, gs = nil, nil
	}
	return Mutation{Class: MirrorSplit, Target: gi, GI: true, op: op, metered: metered, vals: vals, gs: gs}
}

// Len is the number of elements (rows, aggregate groups or index entries).
func (m Mutation) Len() int {
	if m.GI {
		return len(m.vals)
	}
	return len(m.tuples)
}

// Split buckets the elements by destination. partIdx locates the
// partitioning attribute within a fragment's tuples (ignored for a global
// index); route appends the destinations of the slot holding one partition
// value to out and returns it. The result maps each destination to the
// indexes of its elements, in input order. Rows too short to hold the
// partitioning attribute go nowhere.
func (m Mutation) Split(partIdx int, route func(v types.Value, out []int) []int) map[int][]int {
	byDst := map[int][]int{}
	var dsts []int
	for i, n := 0, m.Len(); i < n; i++ {
		var v types.Value
		switch {
		case m.GI:
			v = m.vals[i]
		case partIdx >= 0 && partIdx < len(m.tuples[i]):
			v = m.tuples[i][partIdx]
		default:
			continue
		}
		dsts = route(v, dsts[:0])
		for _, d := range dsts {
			byDst[d] = append(byDst[d], i)
		}
	}
	return byDst
}

// Rebuild returns the request that has the mutation's effect for the
// elements idxs on the fragment or index called name. Inserts charge I/O
// only when both the original did and the copy is metered (shadows are,
// staging and bulk copies are not); deletes are value-addressed through
// hintCol, because row ids do not carry over to a copy.
func (m Mutation) Rebuild(name, hintCol string, idxs []int, metered bool) any {
	switch m.op {
	case opInsert:
		return Insert{Frag: name, Tuples: pick(m.tuples, idxs), Unmetered: !(metered && m.metered)}
	case opDelete:
		return DeleteMatch{Frag: name, HintCol: hintCol, Tuples: pick(m.tuples, idxs)}
	case opAgg:
		a := m.agg
		a.Frag, a.Keys, a.Deltas = name, pick(m.tuples, idxs), pick(m.deltas, idxs)
		return a
	case opGIInsert:
		return GIInsertBatch{GI: name, Vals: pick(m.vals, idxs), Gs: pick(m.gs, idxs), Metered: metered && m.metered}
	default:
		return GIDeleteBatch{GI: name, Vals: pick(m.vals, idxs), Gs: pick(m.gs, idxs)}
	}
}

// Rename returns a MirrorDDL request re-addressed to name.
func (m Mutation) Rename(name string) any { return m.rename(name) }

// pick selects xs[idxs...]. idxs is ascending without repeats, so a
// full-length selection is xs itself.
func pick[T any](xs []T, idxs []int) []T {
	if len(idxs) == len(xs) {
		return xs
	}
	out := make([]T, len(idxs))
	for j, i := range idxs {
		out[j] = xs[i]
	}
	return out
}

// AllRequests returns a zero value of every request type the node handles,
// one per type. It is the registry backing exhaustiveness tests: adding a
// case to Handle without listing it here (or vice versa) is a test failure,
// so new DML request types cannot silently lose dedup or undo coverage.
func AllRequests() []any {
	return []any{
		Seq{}, SeqQuery{}, Ping{},
		CreateFragment{}, CreateIndex{}, CreateGlobalIndex{},
		Insert{}, DeleteRows{}, RestoreRows{}, DeleteMatch{}, LocateMatch{},
		Probe{}, FetchJoin{}, Scan{},
		GIInsertBatch{}, GIDeleteBatch{}, GILookup{}, GIScan{},
		AggApply{}, DropFragment{}, DropGlobalIndexFrag{},
		PromoteSlots{}, GIPromoteSlots{}, GIScrubNode{},
		FragInfo{},
		Prepare{}, Decide{}, ResolveAbort{}, InDoubtReq{},
		CheckpointReq{}, CrashReq{}, RestartReq{},
	}
}

// AllResponses enumerates one zero value of every response type a node can
// return. The TCP link's codec (internal/netsim/tcp) tags a message by its
// type's position in AllRequests followed by AllResponses: the two lists
// are its tag table too.
func AllResponses() []any {
	return []any{
		InsertResult{}, DeleteResult{}, RowsResult{}, Probed{},
		GIDeletedBatch{}, GIScanResult{},
		GIRows{}, PromoteResult{}, GIScrubbed{},
		FragInfoResult{}, SeqQueryResult{}, InDoubtResult{},
		CheckpointResult{}, RestartResult{}, Ack{},
	}
}

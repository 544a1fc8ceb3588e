package node

import (
	"joinview/internal/expr"
	"joinview/internal/netsim"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// Algo selects the join algorithm for a Probe.
type Algo uint8

// Join algorithm choices. AlgoAuto is the zero value, so an unset
// algorithm keeps the per-node cost crossover.
const (
	// AlgoAuto picks whichever the local cost estimate says is cheaper,
	// mirroring "if |A| is large enough ... sort merge is preferable".
	AlgoAuto Algo = iota
	// AlgoIndex uses index nested loops via the best local access path.
	AlgoIndex
	// AlgoSortMerge uses the sort-merge cost model of §3.2.
	AlgoSortMerge
)

func (a Algo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoIndex:
		return "index"
	case AlgoSortMerge:
		return "sort-merge"
	default:
		return "unknown"
	}
}

// CreateFragment allocates an empty fragment for a relation (base table,
// auxiliary relation or view) at the node.
type CreateFragment struct {
	Name       string
	Schema     *types.Schema
	ClusterCol string // empty = heap
	PageRows   int
}

// CreateIndex builds a non-clustered secondary index on a fragment.
type CreateIndex struct {
	Frag, Name, Col string
}

// CreateGlobalIndex allocates this node's fragment of a global index.
type CreateGlobalIndex struct {
	Name          string
	DistClustered bool
}

// Insert appends tuples to a fragment. Unmetered inserts (DDL backfill)
// charge no I/O.
type Insert struct {
	Frag      string
	Tuples    []types.Tuple
	Unmetered bool
	// Epoch stamps the mutation in the fragment's version log for MVCC
	// snapshot reads; 0 (every legacy path) records nothing. GCFloor
	// piggybacks the coordinator's snapshot-GC floor: version records at
	// or below it are unpinned and may be dropped.
	Epoch   uint64
	GCFloor uint64
}

// InsertResult reports the assigned row ids, in input order.
type InsertResult struct {
	Rows []storage.RowID
}

// DeleteRows removes tuples by row id.
type DeleteRows struct {
	Frag string
	Rows []storage.RowID
	// Epoch / GCFloor: see Insert.
	Epoch   uint64
	GCFloor uint64
}

// DeleteMatch removes one stored instance per given tuple (bag semantics),
// locating victims via HintCol.
type DeleteMatch struct {
	Frag    string
	HintCol string
	Tuples  []types.Tuple
	// Epoch / GCFloor: see Insert.
	Epoch   uint64
	GCFloor uint64
}

// DeleteResult returns the tuples actually removed and the row ids they
// occupied (parallel slices). Compensating actions restore the tuples at
// those exact ids via RestoreRows, so global-index entries referencing the
// rows stay valid across a delete + undo.
type DeleteResult struct {
	Tuples []types.Tuple
	Rows   []storage.RowID
}

// RestoreRows re-inserts previously deleted tuples at their original row
// ids (parallel slices). This is the inverse of DeleteRows/DeleteMatch:
// plain re-insertion would allocate fresh ids and dangle any global-index
// entry pointing at the old ones.
type RestoreRows struct {
	Frag   string
	Rows   []storage.RowID
	Tuples []types.Tuple
	// Epoch / GCFloor: see Insert.
	Epoch   uint64
	GCFloor uint64
}

// LocateMatch finds one stored instance per given tuple (bag semantics)
// without deleting, returning row ids and tuples; unmatched tuples are
// skipped. Victim location for value-addressed deletes.
type LocateMatch struct {
	Frag    string
	HintCol string
	Tuples  []types.Tuple
}

// Probe joins delta tuples against a local fragment and returns
// delta ++ row concatenations. This is the per-node join step of all three
// maintenance methods.
type Probe struct {
	Frag     string
	FragCol  string
	Delta    []types.Tuple
	DeltaKey int // index of the join column within delta tuples
	Algo     Algo
	// FanoutHint estimates matches per delta tuple; AlgoAuto uses it to
	// compare index nested loops against sort-merge.
	FanoutHint float64
}

// Probed carries join results back.
type Probed struct {
	Tuples []types.Tuple
}

// FetchJoin joins one delta tuple with specific local rows (located via a
// global index) and returns delta ++ row concatenations. Fetch cost follows
// §3.1(e): one page when the fragment is clustered on FragCol ("distributed
// clustered"), one FETCH per row otherwise.
type FetchJoin struct {
	Frag    string
	FragCol string
	Rows    []storage.RowID
	Delta   types.Tuple
}

// GIInsertBatch adds many entries at once. Two callers use it: DDL
// backfill (Metered false — charge-free, like every backfill), and batched
// index maintenance (Metered true — each entry charges one index INSERT).
// Maintenance batching packs all of a statement's entries for one home
// node into a single physical envelope; Sources records each entry's
// logical origin node so the transport keeps the paper's per-entry SEND
// accounting (see LogicalCounts).
type GIInsertBatch struct {
	GI      string
	Vals    []types.Value
	Gs      []storage.GlobalRowID
	Metered bool
	// Sources holds the logical source node per entry (the base tuple's
	// home node; netsim.Coordinator for compensations). Nil means the batch
	// is a plain physical delivery counted once from its transport source
	// (DDL backfill keeps its historical one-message-per-envelope cost).
	Sources []int32
}

// LogicalCounts implements netsim.Envelope: with Sources set, every entry
// counts as one SEND from its source node (free when the source is the
// destination), the paper's one message per index entry.
func (b GIInsertBatch) LogicalCounts(from, to int) (messages, local int64) {
	return batchCounts(b.Sources, from, to, len(b.Vals))
}

// GIDeleteBatch removes many entries at once (batched index maintenance;
// always metered — each entry charges one index DELETE). Sources follows
// the GIInsertBatch convention.
type GIDeleteBatch struct {
	GI      string
	Vals    []types.Value
	Gs      []storage.GlobalRowID
	Sources []int32
}

// LogicalCounts implements netsim.Envelope (see GIInsertBatch).
func (b GIDeleteBatch) LogicalCounts(from, to int) (messages, local int64) {
	return batchCounts(b.Sources, from, to, len(b.Vals))
}

// GIDeletedBatch reports, per entry, whether it existed.
type GIDeletedBatch struct {
	OK []bool
}

// batchCounts is the shared logical-SEND accounting of the batched GI
// requests: per-entry by source when sources are known, else the default
// single physical message.
func batchCounts(sources []int32, from, to, n int) (messages, local int64) {
	if sources == nil {
		if from == to {
			return 0, 1
		}
		return 1, 0
	}
	for _, s := range sources {
		if int(s) == to {
			local++
		} else {
			messages++
		}
	}
	return messages, local
}

// GILookup finds the global row ids recorded for a value.
type GILookup struct {
	GI  string
	Val types.Value
}

// GIScan reads every entry of this node's global-index fragment,
// unmetered (consistency verification).
type GIScan struct {
	GI string
}

// GIScanResult carries parallel value/row-id slices.
type GIScanResult struct {
	Vals []types.Value
	Gs   []storage.GlobalRowID
}

// GIRows carries a lookup result.
type GIRows struct {
	IDs []storage.GlobalRowID
}

// Scan reads a fragment: every row visible at Epoch, or with Pred set the
// live rows that satisfy it. It is the node's one read, and it answers
// RowsResult with the row ids beside the tuples.
//
//   - Metered, no Pred: charges one scan I/O per page and touches every
//     page in the buffer pool (query reads).
//   - Metered, Pred: the same charge; each row decodes only the columns
//     Pred names, and only matches decode whole (DELETE/UPDATE victim
//     location).
//   - Unmetered: charges nothing and touches no page (DDL backfill,
//     global-index builds, verification).
//
// A Pred with Epoch != 0 or with Unmetered is refused: no caller reads a
// filtered snapshot or filters for free.
type Scan struct {
	Frag string
	// Epoch selects the MVCC snapshot to read: the state after all
	// mutations stamped <= Epoch. 0 reads the live state (identical
	// behaviour and metering to the pre-MVCC engine).
	Epoch     uint64
	Pred      expr.Expr
	Unmetered bool
}

// FindMatching is Scan under the name the benchmark harness's
// node.find_matching_us probe still builds (FindMatching{Frag, Pred}): a
// metered predicate scan. It has no tag and no case of its own.
type FindMatching = Scan

// RowsResult carries tuples and their row ids (parallel slices).
type RowsResult struct {
	Tuples []types.Tuple
	Rows   []storage.RowID
}

// AggApply folds signed group deltas into an aggregate view fragment:
// each key's aggregates are adjusted in place, new groups are inserted,
// and groups whose count reaches zero are removed.
type AggApply struct {
	Frag string
	// HintCol is the view's partition column (group key lookup path).
	HintCol string
	// GroupLen is the number of leading group columns.
	GroupLen int
	// CountPos is the count aggregate's index among the aggregate columns
	// (schema position GroupLen + CountPos).
	CountPos int
	Keys     []types.Tuple
	Deltas   []types.Tuple
	// Epoch / GCFloor: see Insert.
	Epoch   uint64
	GCFloor uint64
}

// DropFragment removes a fragment from the node (dropped relations and
// views, and copies a migration or replica repair no longer needs).
type DropFragment struct {
	Name string
}

// DropGlobalIndexFrag removes this node's global-index fragment.
type DropGlobalIndexFrag struct {
	Name string
}

// PromoteSlots moves the rows of the given hash slots from one local
// fragment into another — the failover step that turns a follower's shadow
// copy into primary data when this node is promoted for slots a crashed
// owner held. PartIdx locates the partitioning attribute within the
// fragment's tuples; a row belongs to slot Hash(t[PartIdx]) % Mod.
// Unmetered (availability repair, like DDL backfill).
type PromoteSlots struct {
	Src, Dst string
	PartIdx  int
	Mod      int
	Slots    []int
}

// PromoteResult reports the promoted tuples and the row ids they occupy in
// the destination fragment (parallel slices) — the coordinator rebuilds
// global-index entries for base-table promotions from them.
type PromoteResult struct {
	Rows   []storage.RowID
	Tuples []types.Tuple
}

// GIPromoteSlots moves global-index entries whose value hashes into the
// given slots from one local global-index fragment into another (the
// shadow→primary counterpart of PromoteSlots for index homes). Unmetered.
type GIPromoteSlots struct {
	Src, Dst string
	Mod      int
	Slots    []int
}

// GIScrubNode removes every entry of a local global-index fragment whose
// global row id references the given node: after that node's slots are
// promoted elsewhere, those row ids dangle and the coordinator re-inserts
// fresh entries from the promotion results. Unmetered.
type GIScrubNode struct {
	GI   string
	Node int
}

// GIScrubbed reports how many entries a scrub removed.
type GIScrubbed struct {
	Removed int
}

// FragInfo asks for the size of a fragment, or with GI set of a
// global-index fragment: its entry count, with Pages 0 (the §3.1 model
// treats an entry list as one page).
type FragInfo struct {
	Frag string
	GI   bool
}

// FragInfoResult reports fragment size.
type FragInfoResult struct {
	Len   int
	Pages int
}

// Seq wraps a mutating request with a coordinator-assigned sequence number
// so retried deliveries are idempotent: the node executes each ID at most
// once and answers duplicates from a cached response. The coordinator's
// resilient transport wraps every mutating sub-request automatically; read
// requests are naturally idempotent and go unwrapped.
//
// TID is the enclosing transaction (statement) id of two-phase commit, zero
// outside any transaction. A durable node logs each applied Seq request as
// a redo record under its TID, which is what makes the transaction
// preparable, replayable and locally abortable.
type Seq struct {
	ID  uint64
	TID uint64
	Req any
}

// LogicalCounts implements netsim.Envelope by delegating to the wrapped
// request: the sequence envelope itself is invisible to message
// accounting, so wrapping a batched request does not collapse its
// per-entry SEND count back to one.
func (s Seq) LogicalCounts(from, to int) (messages, local int64) {
	if env, ok := s.Req.(netsim.Envelope); ok {
		return env.LogicalCounts(from, to)
	}
	if from == to {
		return 0, 1
	}
	return 1, 0
}

// SeqQuery asks whether the node has applied the given sequence number —
// the in-doubt resolution step after a retry budget is exhausted on a
// lost-reply or timeout. If Applied, the cached response lets the
// coordinator treat the call as having succeeded.
type SeqQuery struct {
	ID uint64
}

// SeqQueryResult reports a sequence number's outcome at the node.
type SeqQueryResult struct {
	Applied bool
	Resp    any
}

// Ping checks node liveness (used by Recover before repairing a node).
type Ping struct{}

// Prepare is phase one of two-phase commit: the node makes the named
// transaction's redo records durable (logs PREPARE and forces the log) and
// a successful Ack is its yes vote. Only sent to nodes that executed work
// under the TID. Idempotent.
type Prepare struct {
	TID uint64
}

// Decide delivers the coordinator's commit decision for a transaction. The
// node logs it and forgets the transaction; it does NOT undo anything on
// abort — live-path aborts are compensated by the coordinator's own undo
// calls (logged under the same TID), and crash-path aborts go through
// ResolveAbort. Under presumed abort the decision is delivered lazily and
// its loss is harmless: the coordinator's log remains the authority.
type Decide struct {
	TID    uint64
	Commit bool
}

// ResolveAbort orders the node to locally abort an in-doubt transaction
// after a restart: apply the inverse of each of the TID's logged redo
// records in reverse LSN order (logging the undos under the same TID, so a
// crash mid-abort re-converges), then log ABORT. Idempotent.
type ResolveAbort struct {
	TID uint64
}

// InDoubtReq asks a durable node which transactions it holds redo or
// prepare records for without a logged decision.
type InDoubtReq struct{}

// InDoubtResult lists in-doubt transaction ids in ascending order.
type InDoubtResult struct {
	TIDs []uint64
}

// CheckpointReq takes a checkpoint: snapshot every fragment and
// global-index fragment plus the dedup cache, install it in the durable
// store, and truncate the log prefix it covers (bounded by the oldest
// undecided transaction's first record).
type CheckpointReq struct{}

// CheckpointResult reports the checkpoint position and image size.
type CheckpointResult struct {
	LSN   uint64
	Pages int
}

// CrashReq fail-stops the node: all volatile state (fragments, global
// indexes, dedup cache, buffer pool contents) is discarded; only the
// durable store (log + checkpoint) survives. Until RestartReq the node
// rejects every other request.
type CrashReq struct{}

// RestartReq recovers a crashed durable node: reload the last checkpoint,
// replay the log tail, rebuild the dedup cache and the in-doubt set.
type RestartReq struct{}

// RestartResult reports what recovery did. PagesRead counts checkpoint
// image plus log tail pages; in-doubt transactions still need resolution
// by the coordinator (Decide or ResolveAbort).
type RestartResult struct {
	CheckpointLSN   uint64
	CheckpointPages int
	LogPagesRead    int
	RecordsReplayed int
	InDoubt         []uint64
}

// Ack is the empty success response.
type Ack struct{}

package node

import (
	"reflect"
	"testing"

	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

func walRedo(tid uint64, req, resp any) wal.Record {
	return wal.Record{Kind: wal.KindRedo, TID: tid, Req: req, Resp: resp}
}

func newDurableNodeWithOrders(t *testing.T) *DataNode {
	t.Helper()
	n := New(0, 10)
	n.EnableDurability(10, 0)
	if _, err := n.Handle(Seq{ID: 1, Req: CreateFragment{Name: "orders", Schema: ordersSchema, PageRows: 10}}); err != nil {
		t.Fatal(err)
	}
	return n
}

func ordersContent(t *testing.T, n *DataNode) []types.Tuple {
	t.Helper()
	return mustHandle(t, n, Scan{Frag: "orders", Unmetered: true}).(RowsResult).Tuples
}

func TestCrashLosesStateUntilRestart(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 6)}}})

	mustHandle(t, n, CrashReq{})
	if _, err := n.Handle(Scan{Frag: "orders", Unmetered: true}); err == nil {
		t.Fatal("crashed node answered a read")
	}
	if _, err := n.Handle(Seq{ID: 3, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(3, 7)}}}); err == nil {
		t.Fatal("crashed node accepted a write")
	}

	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if res.RecordsReplayed != 2 {
		t.Fatalf("RecordsReplayed = %d, want 2", res.RecordsReplayed)
	}
	got := ordersContent(t, n)
	if len(got) != 2 {
		t.Fatalf("after replay: %v", got)
	}
	// The dedup cache survives recovery: a retried pre-crash Seq is answered
	// from cache, not re-executed.
	mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 6)}}})
	if got := ordersContent(t, n); len(got) != 2 {
		t.Fatalf("duplicate Seq re-executed after recovery: %v", got)
	}
}

func TestRestartFromCheckpointReplaysOnlyTail(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	ck := mustHandle(t, n, CheckpointReq{}).(CheckpointResult)
	if ck.LSN == 0 || ck.Pages == 0 {
		t.Fatalf("CheckpointResult = %+v", ck)
	}
	mustHandle(t, n, Seq{ID: 3, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}}})

	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if res.CheckpointLSN != ck.LSN {
		t.Fatalf("CheckpointLSN = %d, want %d", res.CheckpointLSN, ck.LSN)
	}
	if res.RecordsReplayed != 1 {
		t.Fatalf("RecordsReplayed = %d, want 1 (only the post-checkpoint insert)", res.RecordsReplayed)
	}
	if got := ordersContent(t, n); len(got) != 2 {
		t.Fatalf("after recovery: %v", got)
	}
}

func TestReplayPreservesRowIDs(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	ins := mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5), order(2, 6), order(3, 7)}}}).(InsertResult)
	del := mustHandle(t, n, Seq{ID: 3, Req: DeleteMatch{Frag: "orders", HintCol: "orderkey", Tuples: []types.Tuple{order(2, 6)}}}).(DeleteResult)
	if len(del.Rows) != 1 {
		t.Fatalf("DeleteResult = %+v", del)
	}

	mustHandle(t, n, CrashReq{})
	mustHandle(t, n, RestartReq{})
	rr := mustHandle(t, n, Scan{Frag: "orders", Unmetered: true}).(RowsResult)
	want := map[storage.RowID]bool{ins.Rows[0]: true, ins.Rows[2]: true}
	got := map[storage.RowID]bool{}
	for _, row := range rr.Rows {
		got[row] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row ids after replay = %v, want %v", rr.Rows, ins.Rows)
	}
}

func TestInDoubtAndResolveAbort(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	mustHandle(t, n, Seq{ID: 3, TID: 7, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}}})
	mustHandle(t, n, Prepare{TID: 7})

	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if !reflect.DeepEqual(res.InDoubt, []uint64{7}) {
		t.Fatalf("InDoubt = %v, want [7]", res.InDoubt)
	}

	mustHandle(t, n, ResolveAbort{TID: 7})
	if got := ordersContent(t, n); len(got) != 1 || got[0][0].I != 1 {
		t.Fatalf("after abort: %v", got)
	}
	if tids := mustHandle(t, n, InDoubtReq{}).(InDoubtResult).TIDs; len(tids) != 0 {
		t.Fatalf("in-doubt after abort = %v", tids)
	}

	// Crash again after the abort: replay must not resurrect TID 7 (the
	// abort record settles it) and the state must still exclude its insert.
	mustHandle(t, n, CrashReq{})
	res = mustHandle(t, n, RestartReq{}).(RestartResult)
	if len(res.InDoubt) != 0 {
		t.Fatalf("InDoubt after aborted tid = %v", res.InDoubt)
	}
	if got := ordersContent(t, n); len(got) != 1 {
		t.Fatalf("after second recovery: %v", got)
	}
}

func TestResolveAbortIdempotentAcrossCrash(t *testing.T) {
	// Crash "mid-abort": simulate by logging a partial undo under the TID
	// (one of two inserts inverted), then crash, restart, and resolve again.
	// The unwind algebra must converge to the pre-transaction state.
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, TID: 9, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	ins2 := mustHandle(t, n, Seq{ID: 3, TID: 9, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}}}).(InsertResult)

	// Partial undo of the second insert, logged under TID 9 exactly as
	// resolveAbort would before a crash interrupted it.
	undo := DeleteRows{Frag: "orders", Rows: ins2.Rows}
	resp := mustHandle(t, n, undo)
	n.store.Log.Append(walRedo(9, undo, resp))

	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if !reflect.DeepEqual(res.InDoubt, []uint64{9}) {
		t.Fatalf("InDoubt = %v, want [9]", res.InDoubt)
	}
	mustHandle(t, n, ResolveAbort{TID: 9})
	if got := ordersContent(t, n); len(got) != 0 {
		t.Fatalf("after re-entrant abort: %v", got)
	}
}

func TestDecideCommitSettlesTransaction(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, TID: 4, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	mustHandle(t, n, Prepare{TID: 4})
	mustHandle(t, n, Decide{TID: 4, Commit: true})

	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if len(res.InDoubt) != 0 {
		t.Fatalf("InDoubt = %v, want none after commit", res.InDoubt)
	}
	if got := ordersContent(t, n); len(got) != 1 {
		t.Fatalf("committed insert lost: %v", got)
	}
}

func TestCheckpointRetainsPendingRecords(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, TID: 5, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	mustHandle(t, n, Seq{ID: 3, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}}})
	mustHandle(t, n, CheckpointReq{})

	// TID 5 is undecided: its redo record must survive checkpoint
	// truncation so a post-crash abort can still invert it.
	mustHandle(t, n, CrashReq{})
	mustHandle(t, n, RestartReq{})
	mustHandle(t, n, ResolveAbort{TID: 5})
	got := ordersContent(t, n)
	if len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("after abort of checkpointed-pending tid: %v", got)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	n := New(0, 10)
	n.EnableDurability(10, 3)
	mustHandle(t, n, Seq{ID: 1, Req: CreateFragment{Name: "orders", Schema: ordersSchema, PageRows: 10}})
	mustHandle(t, n, Seq{ID: 2, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}}})
	mustHandle(t, n, Seq{ID: 3, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}}})
	if ck := n.store.Checkpoint(); ck == nil {
		t.Fatal("no automatic checkpoint after ckptEvery records")
	}
	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if res.CheckpointLSN == 0 {
		t.Fatalf("recovery ignored the automatic checkpoint: %+v", res)
	}
	if got := ordersContent(t, n); len(got) != 2 {
		t.Fatalf("after recovery: %v", got)
	}
}

package node

import (
	"testing"

	"joinview/internal/storage"
	"joinview/internal/types"
)

// loadCheckpointFixture fills a durable node with rows unlogged: a heap
// fragment, a clustered fragment with a secondary index, and a global
// index holding one entry per clustered row.
func loadCheckpointFixture(tb testing.TB, n *DataNode, heapRows, clusteredRows int) {
	tb.Helper()
	must := func(req any) any {
		resp, err := n.Handle(req)
		if err != nil {
			tb.Fatalf("Handle(%T): %v", req, err)
		}
		return resp
	}
	must(CreateFragment{Name: "heap", Schema: ordersSchema, PageRows: 10})
	must(CreateFragment{Name: "orders", Schema: ordersSchema, ClusterCol: "custkey", PageRows: 8})
	must(CreateIndex{Frag: "orders", Name: "ix_orderkey", Col: "orderkey"})
	must(CreateGlobalIndex{Name: "gi"})
	insert := func(frag string, rows int, gi bool) {
		for k := 0; k < rows; k += 1000 {
			var tuples []types.Tuple
			for j := k; j < rows && j < k+1000; j++ {
				tuples = append(tuples, order(int64(j), int64(j%101)))
			}
			ir := must(Insert{Frag: frag, Tuples: tuples}).(InsertResult)
			if !gi {
				continue
			}
			b := GIInsertBatch{GI: "gi"}
			for i, row := range ir.Rows {
				b.Vals = append(b.Vals, tuples[i][1])
				b.Gs = append(b.Gs, storage.GlobalRowID{Node: 0, Row: row})
			}
			must(b)
		}
	}
	insert("heap", heapRows, false)
	insert("orders", clusteredRows, true)
}

// TestCheckpointPagesOfFixedLoad pins the charged image size, which
// depends only on row and entry counts: the heap fragment's 95 rows take
// 10 pages of 10, the clustered fragment's 50 rows 7 pages of 8, and the
// 50 global-index entries 5 log pages of 10, so the image is 22 pages.
func TestCheckpointPagesOfFixedLoad(t *testing.T) {
	n := New(0, 0)
	n.EnableDurability(10, 0)
	loadCheckpointFixture(t, n, 95, 50)
	ck := mustHandle(t, n, CheckpointReq{}).(CheckpointResult)
	if ck.Pages != 22 {
		t.Fatalf("checkpoint image charged %d pages, want 22", ck.Pages)
	}
}

// TestCheckpointImageUnaffectedByLaterWrites: a checkpoint image shares the
// fragments' and global indexes' encoded entries with the live node. After
// the node inserts, deletes and re-inserts on every structure, a node
// restored from the image alone (no log tail) must hold exactly the state
// at the checkpoint.
func TestCheckpointImageUnaffectedByLaterWrites(t *testing.T) {
	n := New(0, 0)
	n.EnableDurability(10, 0)
	loadCheckpointFixture(t, n, 95, 50)
	before := stateFingerprint(t, n)
	mustHandle(t, n, CheckpointReq{})

	var tuples []types.Tuple
	for k := int64(1000); k < 1300; k++ { // enough rows to split leaves
		tuples = append(tuples, order(k, k%13))
	}
	for _, frag := range []string{"heap", "orders"} {
		mustHandle(t, n, Insert{Frag: frag, Tuples: tuples})
		mustHandle(t, n, DeleteRows{Frag: frag, Rows: []storage.RowID{3, 4, 5}})
		mustHandle(t, n, RestoreRows{Frag: frag, Rows: []storage.RowID{4}, Tuples: []types.Tuple{order(-4, 7)}})
	}
	g := storage.GlobalRowID{Node: 0, Row: 4}
	mustHandle(t, n, GIDelete{GI: "gi", Val: types.Int(4), G: g})
	mustHandle(t, n, GIInsert{GI: "gi", Val: types.Int(7), G: g})
	if stateFingerprint(t, n) == before {
		t.Fatal("the writes left the node unchanged; the test proves nothing")
	}

	r := New(0, 0)
	r.EnableDurability(10, 0)
	r.store.SetCheckpoint(n.store.Checkpoint(), 0)
	mustHandle(t, r, CrashReq{})
	if res := mustHandle(t, r, RestartReq{}).(RestartResult); res.RecordsReplayed != 0 {
		t.Fatalf("restart from the image alone replayed %d records", res.RecordsReplayed)
	}
	if after := stateFingerprint(t, r); after != before {
		t.Fatalf("image restored a different state:\n--- at checkpoint ---\n%s\n--- restored ---\n%s", before, after)
	}
}

// BenchmarkCheckpoint takes a full checkpoint image of a node holding
// 100,000 rows: 50,000 in a heap fragment and 50,000 in a clustered
// fragment with a secondary index and a global index over them.
func BenchmarkCheckpoint(b *testing.B) {
	n := New(0, 0)
	n.EnableDurability(10, 0)
	loadCheckpointFixture(b, n, 50_000, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Handle(CheckpointReq{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestart restarts the node of BenchmarkCheckpoint from its
// checkpoint image, with an empty log tail: the cost of reloading the
// image at equal data.
func BenchmarkRestart(b *testing.B) {
	n := New(0, 0)
	n.EnableDurability(10, 0)
	loadCheckpointFixture(b, n, 50_000, 50_000)
	if _, err := n.Handle(CheckpointReq{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Handle(RestartReq{}); err != nil {
			b.Fatal(err)
		}
	}
}

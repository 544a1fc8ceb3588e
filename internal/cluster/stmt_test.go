package cluster

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/types"
)

// These tests pin what the autocommit, transactional and deferred entry
// points must have in common because they share one resolve → apply path
// (dml.go): the same refusals, the same failover, the same cost.

// TestStmtIllTypedRejectedInEveryMode: a statement whose inserted or
// replacement tuples violate the schema is refused at statement time with
// the same error whether it runs autocommit, inside a transaction or
// deferred — and a refused deferred statement leaves nothing in the queue
// to wedge later flushes.
func TestStmtIllTypedRejectedInEveryMode(t *testing.T) {
	badSet := map[string]types.Value{"totalprice": types.String("oops")}
	badRow := []types.Tuple{{types.Int(900), types.String("x"), types.Float(1)}}

	sync := newAsyncPropCluster(t, false)
	_, wantUpd := sync.Update("orders", badSet, eqOrderKey(1))
	wantIns := sync.Insert("orders", badRow)
	if wantUpd == nil || wantIns == nil {
		t.Fatalf("sync accepted ill-typed statements: update %v, insert %v", wantUpd, wantIns)
	}
	tx := sync.Begin()
	if _, err := tx.Update("orders", badSet, eqOrderKey(1)); err == nil || err.Error() != wantUpd.Error() {
		t.Errorf("txn update = %v, want %v", err, wantUpd)
	}
	if err := tx.Insert("orders", badRow); err == nil || err.Error() != wantIns.Error() {
		t.Errorf("txn insert = %v, want %v", err, wantIns)
	}
	noErr(t, tx.Commit())

	async := newAsyncPropCluster(t, true)
	if _, err := async.Update("orders", badSet, eqOrderKey(1)); err == nil || err.Error() != wantUpd.Error() {
		t.Errorf("async update = %v, want %v", err, wantUpd)
	}
	if err := async.Insert("orders", badRow); err == nil || err.Error() != wantIns.Error() {
		t.Errorf("async insert = %v, want %v", err, wantIns)
	}
	if w := async.Watermark(); w.Pending != 0 {
		t.Fatalf("refused statements left %d queue entries", w.Pending)
	}
	noErr(t, async.Insert("orders", []types.Tuple{ord(901, 3, 5)}))
	noErr(t, async.Flush())
	rows, err := async.TableRows("orders")
	noErr(t, err)
	found := false
	for _, r := range rows {
		found = found || r.Equal(ord(901, 3, 5))
	}
	if !found {
		t.Error("insert after the refused statements is not visible after Flush")
	}
	for _, c := range []*Cluster{sync, async} {
		noErr(t, c.CheckAllStructures())
	}
}

// TestTxnFailsOverLikeAutocommit: with a node down at RF=2 a statement
// inside BEGIN fails over and commits exactly as an autocommit one does,
// and a later ROLLBACK restores the pre-transaction bags on the promoted
// followers.
func TestTxnFailsOverLikeAutocommit(t *testing.T) {
	c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, RetryAttempts: 3}, 6, 2, 0)
	noErr(t, c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)))
	wantOrders, err := c.TableRows("orders")
	noErr(t, err)
	wantView, err := c.ViewRows("jv1")
	noErr(t, err)

	noErr(t, c.MarkNodeDown(2))
	tx := c.Begin()
	if err := tx.Insert("orders", []types.Tuple{ord(600, 1, 1.0)}); err != nil {
		t.Fatalf("insert inside BEGIN with a node down: %v", err)
	}
	if n, err := tx.Update("orders", map[string]types.Value{"custkey": types.Int(4)}, eqOrderKey(3)); err != nil || n != 1 {
		t.Fatalf("update inside BEGIN with a node down = %d, %v", n, err)
	}
	if got, err := tx.Delete("orders", eqOrderKey(5)); err != nil || len(got) != 1 {
		t.Fatalf("delete inside BEGIN with a node down = %v, %v", got, err)
	}
	if ms := c.Metrics().Repl; ms.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", ms.Failovers)
	}
	noErr(t, c.CheckViewConsistency("jv1"))
	checkReplicaConsistency(t, c)

	noErr(t, tx.Rollback())
	gotOrders, err := c.TableRows("orders")
	noErr(t, err)
	assertBagEqual(t, "orders after rollback", gotOrders, wantOrders)
	gotView, err := c.ViewRows("jv1")
	noErr(t, err)
	assertBagEqual(t, "jv1 after rollback", gotView, wantView)
	noErr(t, c.CheckViewConsistency("jv1"))
	checkReplicaConsistency(t, c)
	// Back at full strength the restored state is what gets re-replicated.
	noErr(t, c.ReplicateRepair())
	noErr(t, c.CheckAllStructures())
	checkReplicaConsistency(t, c)
}

// TestTxnUpdateCostsLikeAutocommit: under Durability an UPDATE inside a
// transaction is one atomic statement — the same messages, I/Os and
// coordinator decision records as the autocommit UPDATE, not two 2PC
// scopes glued together.
func TestTxnUpdateCostsLikeAutocommit(t *testing.T) {
	set := map[string]types.Value{"totalprice": types.Float(77)}
	cost := func(inTxn bool) (Metrics, int) {
		c, err := New(Config{Nodes: 4, Durability: true})
		noErr(t, err)
		t.Cleanup(c.Close)
		for _, tab := range []*catalog.Table{customerTable(), ordersTable()} {
			noErr(t, c.CreateTable(tab))
		}
		noErr(t, c.Insert("customer", []types.Tuple{cust(1, 1)}))
		noErr(t, c.Insert("orders", []types.Tuple{ord(1, 1, 10), ord(2, 1, 20)}))
		noErr(t, c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)))
		before, decided := c.Metrics(), len(c.Decisions())
		w := propWriter(c)
		var tx *Txn
		if inTxn {
			tx = c.Begin()
			w = tx
		}
		if n, err := w.Update("orders", set, eqOrderKey(1)); err != nil || n != 1 {
			t.Fatalf("update (inTxn=%v) = %d, %v", inTxn, n, err)
		}
		d := c.Metrics().Sub(before)
		if tx != nil {
			noErr(t, tx.Commit())
		}
		noErr(t, c.CheckViewConsistency("jv1"))
		return d, len(c.Decisions()) - decided
	}
	auto, autoDec := cost(false)
	txn, txnDec := cost(true)
	if auto.Net.Messages != txn.Net.Messages || auto.Total().IOs()+auto.Coord.IOs() != txn.Total().IOs()+txn.Coord.IOs() || autoDec != txnDec {
		t.Errorf("UPDATE inside BEGIN costs %d msgs / %d I/Os / %d decisions, autocommit %d / %d / %d",
			txn.Net.Messages, txn.Total().IOs()+txn.Coord.IOs(), txnDec,
			auto.Net.Messages, auto.Total().IOs()+auto.Coord.IOs(), autoDec)
	}
	if autoDec != 1 {
		t.Errorf("autocommit UPDATE logged %d decisions, want 1", autoDec)
	}
}

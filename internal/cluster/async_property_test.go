package cluster

import (
	"fmt"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/types"
)

// propExec is one way of running the property stream's statements.
type propExec struct {
	name string
	c    *Cluster
	// stmt runs one statement through w — the cluster itself, or a
	// one-statement transaction around it.
	stmt func(run func(w propWriter) (int, error)) (int, error)
}

// propWriter is the statement surface *Cluster and *Txn share.
type propWriter interface {
	Insert(table string, tuples []types.Tuple) error
	Delete(table string, pred expr.Expr) ([]types.Tuple, error)
	Update(table string, set map[string]types.Value, pred expr.Expr) (int, error)
}

func autocommitExec(name string, c *Cluster) propExec {
	return propExec{name: name, c: c, stmt: func(run func(propWriter) (int, error)) (int, error) { return run(c) }}
}

// TestAsyncCompactionEquivalence is the write-path equivalence property
// test: one random stream of inserts, deletes and updates runs three ways
// — autocommit, as one-statement transactions (with a multi-statement
// transaction that rolls back interleaved every few steps), and through
// the epoch-compacted async queue — and must leave exactly the same base
// table and view, with every auxiliary structure consistent. Compaction
// (insert/delete cancellation, repeated-key collapse) and transaction
// brackets are invisible in the final state; the brackets are invisible in
// the cost too: each statement charges the same messages and I/Os inside
// BEGIN as outside. Flush points are injected at random, so epochs of many
// shapes (including fully-cancelled ones) are exercised.
func TestAsyncCompactionEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 23, 1229} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sync := newAsyncPropCluster(t, false)
			txn := newAsyncPropCluster(t, false)
			async := newAsyncPropCluster(t, true)
			execs := []propExec{
				autocommitExec("sync", sync),
				{name: "txn", c: txn, stmt: func(run func(propWriter) (int, error)) (int, error) {
					tx := txn.Begin()
					n, err := run(tx)
					if err != nil {
						return n, err
					}
					return n, tx.Commit()
				}},
				autocommitExec("async", async),
			}
			rng := newRand(seed)

			// every runs one statement on all three executors, checking that
			// they agree on the affected count and that sync and txn agree
			// on its logical cost.
			every := func(step int, what string, run func(w propWriter) (int, error)) {
				t.Helper()
				var want int
				var wantCost Metrics
				for i, e := range execs {
					before := e.c.Metrics()
					n, err := e.stmt(run)
					if err != nil {
						t.Fatalf("step %d %s on %s: %v", step, what, e.name, err)
					}
					cost := e.c.Metrics().Sub(before)
					switch {
					case i == 0:
						want, wantCost = n, cost
					case n != want:
						t.Fatalf("step %d %s: %s affected %d tuples, sync %d", step, what, e.name, n, want)
					case e.name == "txn" && (cost.Net.Messages != wantCost.Net.Messages || cost.TotalIOs() != wantCost.TotalIOs()):
						t.Fatalf("step %d %s: inside BEGIN costs %d msgs / %d I/Os, autocommit %d / %d", step, what,
							cost.Net.Messages, cost.TotalIOs(), wantCost.Net.Messages, wantCost.TotalIOs())
					}
				}
			}

			nextKey := int64(5000)
			var live []int64 // keys inserted by the stream, possibly deleted again
			for step := 0; step < 120; step++ {
				if step%7 == 3 {
					// A transaction that touches the stream's keys and rolls
					// back: its compensations must leave the txn cluster where
					// the other two are.
					tx := txn.Begin()
					noErr(t, tx.Insert("orders", []types.Tuple{ord(9000+int64(step), rng.Int63n(8), 1)}))
					if len(live) > 0 {
						k := live[rng.Intn(len(live))]
						if _, err := tx.Update("orders", map[string]types.Value{"custkey": types.Int(rng.Int63n(8))}, eqOrderKey(k)); err != nil {
							t.Fatalf("step %d update in rolled-back txn: %v", step, err)
						}
						if _, err := tx.Delete("orders", eqOrderKey(live[rng.Intn(len(live))])); err != nil {
							t.Fatalf("step %d delete in rolled-back txn: %v", step, err)
						}
					}
					noErr(t, tx.Rollback())
				}
				switch op := rng.Intn(10); {
				case op < 4: // insert a fresh order
					nextKey++
					tup := ord(nextKey, rng.Int63n(8), float64(rng.Intn(500)))
					every(step, "insert", func(w propWriter) (int, error) {
						return 1, w.Insert("orders", []types.Tuple{tup})
					})
					live = append(live, nextKey)
				case op < 7: // delete a stream key (often still queued: cancellation)
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					every(step, fmt.Sprintf("delete %d", k), func(w propWriter) (int, error) {
						got, err := w.Delete("orders", eqOrderKey(k))
						return len(got), err
					})
				case op < 9: // update a stream key (repeated-key collapse)
					if len(live) == 0 {
						continue
					}
					k := live[rng.Intn(len(live))]
					set := map[string]types.Value{"totalprice": types.Float(float64(rng.Intn(1000)))}
					every(step, fmt.Sprintf("update %d", k), func(w propWriter) (int, error) {
						return w.Update("orders", set, eqOrderKey(k))
					})
				default: // random epoch boundary
					if err := async.Flush(); err != nil {
						t.Fatalf("step %d flush: %v", step, err)
					}
				}
			}
			if err := async.Flush(); err != nil {
				t.Fatal(err)
			}

			wantOrders, err := sync.TableRows("orders")
			noErr(t, err)
			wantView, err := sync.ViewRows("jv1")
			noErr(t, err)
			for _, e := range execs {
				orders, err := e.c.TableRows("orders")
				noErr(t, err)
				assertBagEqual(t, "orders on "+e.name+" vs sync", orders, wantOrders)
				view, err := e.c.ViewRows("jv1")
				noErr(t, err)
				assertBagEqual(t, "jv1 on "+e.name+" vs sync", view, wantView)
				if err := e.c.CheckViewConsistency("jv1"); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if err := e.c.CheckAllStructures(); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
			}
			if m := async.Metrics(); m.Queue.DeltasCancelled == 0 {
				t.Error("stream produced no cancellations; widen the mix")
			}
		})
	}
}

// newAsyncPropCluster builds the equivalence twins: identical layout and
// load, differing only in maintenance deferral.
func newAsyncPropCluster(t *testing.T, async bool) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, AsyncMaintenance: async})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var customers, orders []types.Tuple
	ok := int64(0)
	for ck := int64(0); ck < 8; ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < 2; o++ {
			ok++
			orders = append(orders, ord(ok, ck, float64(ok)*10))
		}
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}
	return c
}

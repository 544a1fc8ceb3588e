package cluster

import (
	"fmt"
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
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

// cellTB lets one sweep cell reuse the fail-fast chaos helpers: a failure
// is recorded and unwinds the cell, not the test, so a sweep reports how
// many crash points are broken instead of stopping at the first.
type cellTB struct {
	testing.TB
	errs     []string
	cleanups []func()
}

type cellAbort struct{}

func (c *cellTB) Helper()          {}
func (c *cellTB) Cleanup(f func()) { c.cleanups = append(c.cleanups, f) }
func (c *cellTB) Errorf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}
func (c *cellTB) Fatalf(format string, args ...any) {
	c.Errorf(format, args...)
	panic(cellAbort{})
}
func (c *cellTB) Fatal(args ...any) { c.Fatalf("%s", fmt.Sprint(args...)) }

// runCell runs one cell and returns what it reported ("" = consistent).
func runCell(t *testing.T, cell func(tb testing.TB)) (bad string) {
	tb := &cellTB{TB: t}
	defer func() {
		for i := len(tb.cleanups) - 1; i >= 0; i-- {
			tb.cleanups[i]()
		}
		if r := recover(); r != nil {
			if _, ok := r.(cellAbort); !ok {
				panic(r)
			}
		}
		bad = strings.Join(tb.errs, "; ")
	}()
	cell(tb)
	return ""
}

// TestStmtAtomicAtEveryCrashPoint lands a node crash after every delivery
// count of a multi-row statement — every strategy, every crash node, with
// a join view and an aggregate view on the table — and requires the
// statement to be atomic at each one. At RF=1 the statement may fail; after
// recovery (rebuild without durability, log replay with it) the base table
// is the before-bag if it failed and the after-bag if it succeeded, and
// every derived structure equals its recompute. At RF=2 the statement must
// fail over and succeed, the views must be right on the survivors at once,
// and the replicas must agree after re-replication. Each block reports its
// count of inconsistent crash points.
func TestStmtAtomicAtEveryCrashPoint(t *testing.T) {
	batch := make([]types.Tuple, 8)
	for i := range batch {
		batch[i] = ord(int64(900+i), int64(i), float64(i+1))
	}
	lowCust := expr.Cmp{Op: expr.LT, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(4)}}
	price := map[string]types.Value{"totalprice": types.Float(77)}
	// A statement and the orders bag it leaves when it succeeds.
	type sweepStmt struct {
		name  string
		run   func(c *Cluster) error
		after func(before []types.Tuple) []types.Tuple
	}
	insert := sweepStmt{"insert",
		func(c *Cluster) error { return c.Insert("orders", batch) },
		func(before []types.Tuple) []types.Tuple { return append(before[:len(before):len(before)], batch...) },
	}
	stmts := []sweepStmt{
		insert,
		{"delete",
			func(c *Cluster) error { _, err := c.Delete("orders", lowCust); return err },
			func(before []types.Tuple) (out []types.Tuple) {
				for _, o := range before {
					if o[1].I >= 4 {
						out = append(out, o)
					}
				}
				return out
			},
		},
		{"update",
			func(c *Cluster) error { _, err := c.Update("orders", price, lowCust); return err },
			func(before []types.Tuple) (out []types.Tuple) {
				for _, o := range before {
					if o[1].I < 4 {
						o = ord(o[0].I, o[1].I, 77)
					}
					out = append(out, o)
				}
				return out
			},
		},
	}
	views := []string{"jv1", "agg1"}
	consistent := func(tb testing.TB, c *Cluster, stage string, want []types.Tuple) {
		got, err := c.TableRows("orders")
		if err != nil {
			tb.Fatalf("%s: reading orders: %v", stage, err)
		}
		if err := bagEqual(got, want); err != nil {
			tb.Errorf("%s: orders: %v", stage, err)
		}
		for _, v := range views {
			if err := c.CheckViewConsistency(v); err != nil {
				tb.Errorf("%s: %v", stage, err)
			}
		}
	}
	// sweep runs cell at every crash point and fails the block with the
	// count of inconsistent ones.
	sweep := func(t *testing.T, maxK int, cell func(tb testing.TB, crash, k int)) {
		bad, first := 0, ""
		for crash := 0; crash < 4; crash++ {
			for k := 1; k <= maxK; k++ {
				crash, k := crash, k
				if msg := runCell(t, func(tb testing.TB) { cell(tb, crash, k) }); msg != "" {
					if bad++; first == "" {
						first = fmt.Sprintf("crash node %d after %d deliveries: %s", crash, k, msg)
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("%d of %d crash points inconsistent; first: %s", bad, 4*maxK, first)
		}
	}
	for _, st := range stmts {
		for _, strat := range allStrategies {
			for _, durable := range []bool{false, true} {
				st, strat, durable := st, strat, durable
				t.Run(fmt.Sprintf("rf1/%s/%s/durable=%v", st.name, strat, durable), func(t *testing.T) {
					sweep(t, 30, func(tb testing.TB, crash, k int) {
						inj := fault.New(fault.Config{Seed: 1})
						c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4, Durability: durable})
						if err != nil {
							tb.Fatal(err)
						}
						loadChaosCluster(tb, c, strat, 8, 2)
						if err := c.CreateView(aggViewDef("agg1", strat)); err != nil {
							tb.Fatal(err)
						}
						before, err := c.TableRows("orders")
						if err != nil {
							tb.Fatal(err)
						}
						inj.CrashAfter(crash, k)
						want := before
						if st.run(c) == nil {
							want = st.after(before)
						}
						if durable {
							recoverAllDurable(tb, c, inj)
						} else {
							recoverAll(tb, c, inj)
						}
						consistent(tb, c, "after recovery", want)
						if err := c.CheckAllStructures(); err != nil {
							tb.Errorf("after recovery: %v", err)
						}
					})
				})
			}
		}
	}
	for _, strat := range allStrategies {
		for _, durable := range []bool{false, true} {
			strat, durable := strat, durable
			t.Run(fmt.Sprintf("rf2/insert/%s/durable=%v", strat, durable), func(t *testing.T) {
				sweep(t, 40, func(tb testing.TB, crash, k int) {
					inj := fault.New(fault.Config{Seed: 1})
					c := newReplicatedTPCR(tb, Config{
						Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 3, Durability: durable,
					}, 8, 2, 0)
					for _, v := range []*catalog.View{jv1Def("jv1", strat), aggViewDef("agg1", strat)} {
						if err := c.CreateView(v); err != nil {
							tb.Fatal(err)
						}
					}
					before, err := c.TableRows("orders")
					if err != nil {
						tb.Fatal(err)
					}
					inj.CrashAfter(crash, k)
					err = insert.run(c)
					inj.CrashAfter(0, -1)
					if err != nil {
						tb.Fatalf("insert did not fail over: %v", err)
					}
					// The healing read: a crash that only hit a decision or a
					// mirror is discovered by the first read, which fails;
					// every later one is served complete by the followers.
					_, _ = c.TableRows("orders")
					want := insert.after(before)
					consistent(tb, c, "on the survivors", want)
					for _, n := range inj.DownNodes() {
						inj.Restart(n)
					}
					if err := c.ReplicateRepair(); err != nil {
						tb.Fatalf("ReplicateRepair: %v", err)
					}
					checkReplicaConsistency(tb, c)
					consistent(tb, c, "after repair", want)
					if err := c.CheckAllStructures(); err != nil {
						tb.Errorf("after repair: %v", err)
					}
				})
			})
		}
	}
}

package cluster

import (
	"fmt"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/node"
	"joinview/internal/types"
)

// newDurableChaosCluster is newChaosCluster with the write-ahead-log
// durability layer on: every DML statement runs under presumed-abort 2PC,
// crashes wipe volatile state, and recovery replays checkpoint + log tail.
func newDurableChaosCluster(t *testing.T, inj *fault.Injector, strat catalog.Strategy, nCust, ordersPer, ckptEvery int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4, Durability: true, CheckpointEvery: ckptEvery})
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
	for ck := int64(0); ck < int64(nCust); ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < ordersPer; o++ {
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
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return c
}

// assertNoInDoubt verifies every node settled all its transactions: the
// in-doubt set is empty cluster-wide.
func assertNoInDoubt(t *testing.T, c *Cluster) {
	t.Helper()
	for n := 0; n < c.cfg.Nodes; n++ {
		resp, err := c.rawDeliver(n, node.InDoubtReq{})
		if err != nil {
			t.Fatalf("InDoubtReq at node %d: %v", n, err)
		}
		if tids := resp.(node.InDoubtResult).TIDs; len(tids) != 0 {
			t.Fatalf("node %d still has in-doubt transactions %v", n, tids)
		}
	}
}

// recoverAllDurable ends a durable fault episode: stop injecting, defuse
// scheduled crashes, then for every node that went down, wipe its volatile
// state (the fail-stop the fault layer only simulated at the transport)
// and recover it from its own log.
func recoverAllDurable(t testing.TB, c *Cluster, inj *fault.Injector) {
	t.Helper()
	inj.Disarm()
	inj.CrashAfter(0, -1)
	down := map[int]bool{}
	for _, n := range inj.DownNodes() {
		down[n] = true
	}
	for _, n := range c.Degraded() {
		down[n] = true
	}
	for n := range down {
		if err := c.CrashNode(n); err != nil {
			t.Fatalf("crash node %d: %v", n, err)
		}
		rep, err := c.RecoverWithReport(n)
		if err != nil {
			t.Fatalf("recover node %d: %v", n, err)
		}
		if rep.Mode != "replay" {
			t.Fatalf("recover node %d used mode %q, want replay", n, rep.Mode)
		}
	}
	if d := c.Degraded(); len(d) != 0 {
		t.Fatalf("still degraded after recovery: %v", d)
	}
}

// TestDurableCrashMidTransactionReplay is the core durability scenario,
// run under each maintenance strategy: a node fail-stops in the middle of
// a multi-node insert transaction (losing all volatile state), the
// statement aborts, and recovery brings the node back from its checkpoint
// and log tail — resolving the interrupted transaction by presumed abort —
// after which the base table is untouched, the view equals a fresh
// recompute, and no transaction is left in doubt anywhere.
func TestDurableCrashMidTransactionReplay(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 41})
			c := newDurableChaosCluster(t, inj, strat, 6, 2, 0)
			full, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}

			// The batch spans every node; the transport fences node 1 a few
			// calls in, after some of the statement's work — including its
			// redo records — has landed there.
			inj.CrashAfter(1, 2)
			batch := []types.Tuple{ord(900, 0, 1), ord(901, 1, 2), ord(902, 2, 3), ord(903, 3, 4), ord(904, 4, 5), ord(905, 5, 6)}
			if err := c.Insert("orders", batch); err == nil {
				t.Fatal("insert crossing a mid-statement crash should fail")
			}
			// Complete the fail-stop: wipe the node's volatile state so only
			// its write-ahead log and checkpoint survive.
			inj.CrashAfter(0, -1)
			if err := c.CrashNode(1); err != nil {
				t.Fatal(err)
			}

			rep, err := c.RecoverWithReport(1)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.Mode != "replay" {
				t.Fatalf("recovery mode %q, want replay", rep.Mode)
			}
			if rep.CheckpointPages == 0 {
				t.Fatalf("recovery ignored the checkpoint: %+v", rep)
			}
			if rep.InDoubtResolved != rep.Committed+rep.Aborted {
				t.Fatalf("in-doubt accounting inconsistent: %+v", rep)
			}
			t.Logf("recovery: %+v", rep)

			got, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "orders after replay recovery", got, full)
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatalf("view inconsistent after replay recovery: %v", err)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
			assertNoInDoubt(t, c)

			// Full service: the same batch commits cleanly now.
			if err := c.Insert("orders", batch); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableCommittedWorkSurvivesCrash commits transactions, then
// fail-stops a node with no warning: everything committed must come back
// from checkpoint + log replay, including work logged after the last
// checkpoint.
func TestDurableCommittedWorkSurvivesCrash(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 43})
	c := newDurableChaosCluster(t, inj, catalog.StrategyAuxRel, 6, 2, 0)
	// Post-checkpoint commits: these exist only in the log tail.
	if err := c.Insert("orders", []types.Tuple{ord(910, 0, 1), ord(911, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("orders",
		expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	full, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n < 4; n++ {
		if err := c.CrashNode(n); err != nil {
			t.Fatal(err)
		}
		if err := c.Recover(n); err != nil {
			t.Fatalf("recover node %d: %v", n, err)
		}
	}
	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after full-cluster crash", got, full)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
	assertNoInDoubt(t, c)
}

// TestDurableKillRestartStorm drives a seeded statement stream punctuated
// by fail-stop crashes (volatile state wiped every time) and recoveries,
// under each strategy. Frequent automatic checkpoints exercise log
// truncation concurrently with pending transactions. After the storm the
// base table must hold exactly the committed statements' rows and every
// derived structure must match a recompute.
func TestDurableKillRestartStorm(t *testing.T) {
	for _, strat := range allStrategies {
		for _, seed := range []int64{1, 2} {
			strat, seed := strat, seed
			t.Run(fmt.Sprintf("%s/seed=%d", strat, seed), func(t *testing.T) {
				runDurableStorm(t, strat, seed)
			})
		}
	}
}

func runDurableStorm(t *testing.T, strat catalog.Strategy, seed int64) {
	inj := fault.New(fault.Config{
		Seed:        seed,
		DropRequest: 0.03,
		DropReply:   0.03,
		Duplicate:   0.03,
		HandlerErr:  0.03,
	})
	const nCust, ordersPer = 6, 2
	c := newDurableChaosCluster(t, inj, strat, nCust, ordersPer, 16)

	mirror := map[int64]types.Tuple{}
	var okeys []int64
	for ck := int64(0); ck < nCust; ck++ {
		for o := 0; o < ordersPer; o++ {
			k := ck*ordersPer + int64(o) + 1
			mirror[k] = ord(k, ck, float64(k)*10)
			okeys = append(okeys, k)
		}
	}

	r := newRand(seed)
	nextOK := int64(1000)
	inj.Arm()
	committed, failed, crashes := 0, 0, 0
	for i := 0; i < 40; i++ {
		if len(c.Degraded()) > 0 || len(inj.DownNodes()) > 0 {
			if r.Float64() < 0.6 {
				recoverAllDurable(t, c, inj)
				inj.Arm()
			}
		} else if r.Float64() < 0.12 {
			// Fail-stop between statements: fence and wipe immediately.
			inj.Disarm()
			if err := c.CrashNode(r.Intn(4)); err != nil {
				t.Fatal(err)
			}
			inj.Arm()
			crashes++
		} else if r.Float64() < 0.08 {
			// Fail-stop landing mid-statement: the transport fences the
			// node partway through a future statement; the wipe happens in
			// recoverAllDurable.
			inj.CrashAfter(r.Intn(4), 1+r.Intn(6))
			crashes++
		}

		var err error
		var applied func()
		switch draw := r.Float64(); {
		case draw < 0.5: // insert new orders
			n := 1 + r.Intn(3)
			batch := make([]types.Tuple, n)
			keys := make([]int64, n)
			for j := 0; j < n; j++ {
				nextOK++
				keys[j] = nextOK
				batch[j] = ord(nextOK, int64(r.Intn(nCust)), float64(nextOK))
			}
			err = c.Insert("orders", batch)
			applied = func() {
				for j, k := range keys {
					mirror[k] = batch[j]
					okeys = append(okeys, k)
				}
			}
		case draw < 0.75 && len(okeys) > 0: // delete one order
			idx := r.Intn(len(okeys))
			k := okeys[idx]
			_, err = c.Delete("orders",
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k)}})
			applied = func() {
				delete(mirror, k)
				okeys[idx] = okeys[len(okeys)-1]
				okeys = okeys[:len(okeys)-1]
			}
		default: // reprice one order
			if len(okeys) == 0 {
				continue
			}
			k := okeys[r.Intn(len(okeys))]
			price := types.Float(float64(r.Intn(10000)))
			_, err = c.Update("orders",
				map[string]types.Value{"totalprice": price},
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k)}})
			applied = func() {
				nt := mirror[k].Clone()
				nt[2] = price
				mirror[k] = nt
			}
		}
		if err == nil {
			committed++
			applied()
		} else {
			failed++
		}
	}

	recoverAllDurable(t, c, inj)
	if crashes == 0 {
		t.Skipf("seed %d produced no crashes; storm not meaningful", seed)
	}
	t.Logf("durable storm: %d committed, %d failed, %d crashes, faults=%+v",
		committed, failed, crashes, inj.Stats())

	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatalf("TableRows(orders) after storm: %v", err)
	}
	want := make([]types.Tuple, 0, len(mirror))
	for _, tu := range mirror {
		want = append(want, tu)
	}
	assertBagEqual(t, "orders after durable storm", got, want)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("view inconsistent after durable storm: %v", err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatalf("structures inconsistent after durable storm: %v", err)
	}
	assertNoInDoubt(t, c)
}

// TestCoordinatorDecisionLoss drives the presumed-abort decision table
// directly: a participant prepares a transaction and crashes before the
// decision reaches it. If the coordinator logged COMMIT before the crash,
// recovery must re-deliver the commit and keep the work; if it logged
// nothing, recovery must presume abort and undo it.
func TestCoordinatorDecisionLoss(t *testing.T) {
	for _, commit := range []bool{true, false} {
		commit := commit
		name := "presumed-abort"
		if commit {
			name = "commit-decision"
		}
		t.Run(name, func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 47})
			c := newDurableChaosCluster(t, inj, catalog.StrategyAuxRel, 4, 2, 0)

			// lineitem has no views or auxiliary structures in this cluster,
			// so driving its fragment directly keeps everything consistent.
			row := li(42, 7, 3.5)
			target := c.Catalog().Partitioner().NodeFor(row[0])
			tid := c.tids.Add(1)
			if _, err := c.rawDeliver(target, node.Seq{ID: c.seq.Add(1), TID: tid,
				Req: node.Insert{Frag: "lineitem", Tuples: []types.Tuple{row}}}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rawDeliver(target, node.Prepare{TID: tid}); err != nil {
				t.Fatal(err)
			}
			if commit {
				// The commit point: the decision reached the coordinator's
				// log, but the participant crashes before hearing it.
				c.logDecision(tid, nil)
			}
			if err := c.CrashNode(target); err != nil {
				t.Fatal(err)
			}

			rep, err := c.RecoverWithReport(target)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.InDoubtResolved != 1 {
				t.Fatalf("InDoubtResolved = %d, want 1 (%+v)", rep.InDoubtResolved, rep)
			}
			rows, err := c.TableRows("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			if commit {
				if rep.Committed != 1 || rep.Aborted != 0 {
					t.Fatalf("decision resolution = %+v, want 1 committed", rep)
				}
				assertBagEqual(t, "lineitem after commit-side recovery", rows, []types.Tuple{row})
			} else {
				if rep.Aborted != 1 || rep.Committed != 0 {
					t.Fatalf("decision resolution = %+v, want 1 aborted", rep)
				}
				if len(rows) != 0 {
					t.Fatalf("presumed abort left rows: %v", rows)
				}
			}
			assertNoInDoubt(t, c)

			// A second crash/recovery settles instantly: the decision is no
			// longer in doubt.
			if err := c.CrashNode(target); err != nil {
				t.Fatal(err)
			}
			rep, err = c.RecoverWithReport(target)
			if err != nil {
				t.Fatal(err)
			}
			if rep.InDoubtResolved != 0 {
				t.Fatalf("second recovery re-resolved: %+v", rep)
			}
			got, err := c.TableRows("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "lineitem after second recovery", got, rows)
		})
	}
}

// TestReentrantDurableRecovery crashes a node again in the middle of
// recovery — after the log replay restored its state but before the
// coordinator resolved its in-doubt transaction — and checks that a second
// recovery still converges to the same end state.
func TestReentrantDurableRecovery(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 53})
	c := newDurableChaosCluster(t, inj, catalog.StrategyGlobalIndex, 6, 2, 0)
	full, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	// Leave an in-doubt transaction at node 2 via a mid-statement crash.
	inj.CrashAfter(2, 2)
	batch := []types.Tuple{ord(920, 0, 1), ord(921, 1, 2), ord(922, 2, 3), ord(923, 3, 4), ord(924, 4, 5), ord(925, 5, 6)}
	if err := c.Insert("orders", batch); err == nil {
		t.Fatal("insert crossing the crash should fail")
	}
	inj.CrashAfter(0, -1)
	inj.Restart(2)

	// Plant a second, guaranteed-prepared transaction at node 2 (driving a
	// lineitem fragment that belongs to no view) so the re-entrant passes
	// definitely carry an unresolved in-doubt decision across both crashes.
	var row types.Tuple
	for k := int64(1); ; k++ {
		if row = li(k, 1, 2.5); c.Catalog().Partitioner().NodeFor(row[0]) == 2 {
			break
		}
	}
	tid := c.tids.Add(1)
	if _, err := c.rawDeliver(2, node.Seq{ID: c.seq.Add(1), TID: tid,
		Req: node.Insert{Frag: "lineitem", Tuples: []types.Tuple{row}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.rawDeliver(2, node.Prepare{TID: tid}); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(2); err != nil {
		t.Fatal(err)
	}

	// First recovery attempt: the node restarts and replays its log, then
	// fail-stops again before in-doubt resolution.
	if _, err := c.RestartNode(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := c.CrashNode(2); err != nil {
		t.Fatal(err)
	}

	// Second, completed recovery converges.
	rep, err := c.RecoverWithReport(2)
	if err != nil {
		t.Fatalf("re-entrant recover: %v", err)
	}
	t.Logf("re-entrant recovery: %+v", rep)
	if rep.Mode != "replay" {
		t.Fatalf("re-entrant recovery used mode %q, want replay", rep.Mode)
	}
	if rep.Aborted == 0 {
		t.Fatalf("planted in-doubt transaction not presumed aborted: %+v", rep)
	}
	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after re-entrant recovery", got, full)
	if rows, err := c.TableRows("lineitem"); err != nil {
		t.Fatal(err)
	} else if len(rows) != 0 {
		t.Fatalf("presumed-aborted lineitem insert survived re-entrant recovery: %v", rows)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
	assertNoInDoubt(t, c)
}

package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// newChaosCluster builds a small loaded cluster whose transport is wrapped
// in the given (still disarmed) injector, with a jv1 view maintained by the
// given strategy. Retries are generous because storms stack faults.
func newChaosCluster(t *testing.T, inj *fault.Injector, strat catalog.Strategy, nCust, ordersPer int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	return loadChaosCluster(t, c, strat, nCust, ordersPer)
}

// loadChaosCluster loads the chaos schema, rows and jv1 view into c and
// closes c with the test.
func loadChaosCluster(t testing.TB, c *Cluster, strat catalog.Strategy, nCust, ordersPer int) *Cluster {
	t.Helper()
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
	return c
}

// recoverAll ends a fault episode: stop injecting, bring every crashed
// node back at the transport layer, defuse any pending scheduled crash,
// then run coordinator recovery for every node the cluster saw fail.
func recoverAll(t testing.TB, c *Cluster, inj *fault.Injector) {
	t.Helper()
	inj.Disarm()
	inj.CrashAfter(0, -1)
	for _, n := range inj.DownNodes() {
		inj.Restart(n)
	}
	for _, n := range c.Degraded() {
		if err := c.Recover(n); err != nil {
			t.Fatalf("recover node %d: %v", n, err)
		}
	}
	if d := c.Degraded(); len(d) != 0 {
		t.Fatalf("still degraded after recovery: %v", d)
	}
}

func sortedStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

func assertBagEqual(t *testing.T, label string, got []types.Tuple, want []types.Tuple) {
	t.Helper()
	g, w := sortedStrings(got), sortedStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", label, i, g[i], w[i])
		}
	}
}

// TestChaosStormAllStrategies drives a seeded storm of inserts, deletes
// and updates — with message drops, dropped replies, duplicated
// deliveries, transient handler errors, and node crashes (both between
// and in the middle of statements) — against each maintenance strategy.
// Statements may fail, but every failure must be atomic: after the storm
// ends and every node is recovered, the base table must hold exactly the
// successfully-committed rows, and the view and every auxiliary structure
// must agree with a from-scratch recompute.
func TestChaosStormAllStrategies(t *testing.T) {
	seeds := []int64{1, 2, 3}
	for _, strat := range allStrategies {
		for _, seed := range seeds {
			strat, seed := strat, seed
			t.Run(fmt.Sprintf("%s/seed=%d", strat, seed), func(t *testing.T) {
				runChaosStorm(t, strat, seed, false)
			})
		}
		// The same storm over real sockets: with an injector installed
		// dispatch is serial, so the fault draws land as on Direct.
		t.Run(fmt.Sprintf("%s/tcp/seed=1", strat), func(t *testing.T) {
			runChaosStorm(t, strat, 1, true)
		})
	}
}

func runChaosStorm(t *testing.T, strat catalog.Strategy, seed int64, useTCP bool) {
	inj := fault.New(fault.Config{
		Seed:        seed,
		DropRequest: 0.05,
		DropReply:   0.04,
		Duplicate:   0.05,
		HandlerErr:  0.05,
	})
	const nCust, ordersPer = 6, 2
	cl, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4, UseTCP: useTCP})
	if err != nil {
		t.Fatal(err)
	}
	c := loadChaosCluster(t, cl, strat, nCust, ordersPer)

	// Mirror of the orders table: what a committed-statement log says the
	// table must contain. Customers are insert-only in this storm.
	mirror := map[int64]types.Tuple{}
	var okeys []int64
	for ck := int64(0); ck < nCust; ck++ {
		for o := 0; o < ordersPer; o++ {
			k := ck*ordersPer + int64(o) + 1
			mirror[k] = ord(k, ck, float64(k)*10)
			okeys = append(okeys, k)
		}
	}
	wantCust := int64(nCust)

	r := newRand(seed)
	nextOK := int64(1000)
	nextCK := int64(100)
	inj.Arm()
	committed, failed := 0, 0
	for i := 0; i < 50; i++ {
		// Fault-episode control: occasionally crash a node (between
		// statements or scheduled to land mid-statement), and while
		// degraded sometimes run a recovery window before continuing.
		if len(c.Degraded()) > 0 || len(inj.DownNodes()) > 0 {
			if r.Float64() < 0.5 {
				recoverAll(t, c, inj)
				inj.Arm()
			}
		} else {
			if r.Float64() < 0.08 {
				inj.Crash(r.Intn(4))
			} else if r.Float64() < 0.06 {
				inj.CrashAfter(r.Intn(4), 1+r.Intn(8))
			}
		}

		var err error
		var applied func()
		switch draw := r.Float64(); {
		case draw < 0.45: // insert a batch of new orders
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
		case draw < 0.70 && len(okeys) > 0: // delete one existing order
			idx := r.Intn(len(okeys))
			k := okeys[idx]
			_, err = c.Delete("orders",
				expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k)}})
			applied = func() {
				delete(mirror, k)
				okeys[idx] = okeys[len(okeys)-1]
				okeys = okeys[:len(okeys)-1]
			}
		case draw < 0.88 && len(okeys) > 0: // reprice one existing order
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
		default: // insert a new customer (the view's other side)
			nextCK++
			ck := nextCK
			err = c.Insert("customer", []types.Tuple{cust(ck, float64(ck))})
			applied = func() { wantCust++ }
		}
		if err == nil {
			committed++
			applied()
		} else {
			failed++
		}
	}

	recoverAll(t, c, inj)

	if total := inj.Stats().Total(); total == 0 {
		t.Fatalf("storm injected no faults (committed=%d failed=%d)", committed, failed)
	}
	t.Logf("storm: %d committed, %d failed, faults=%+v retries=%d",
		committed, failed, inj.Stats(), c.Metrics().Retries)

	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatalf("TableRows(orders) after recovery: %v", err)
	}
	want := make([]types.Tuple, 0, len(mirror))
	for _, tu := range mirror {
		want = append(want, tu)
	}
	assertBagEqual(t, "orders after storm", got, want)

	custRows, err := c.TableRows("customer")
	if err != nil {
		t.Fatalf("TableRows(customer) after recovery: %v", err)
	}
	if int64(len(custRows)) != wantCust {
		t.Fatalf("customer has %d rows after storm, want %d", len(custRows), wantCust)
	}

	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("view inconsistent after storm: %v", err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatalf("auxiliary structures inconsistent after storm: %v", err)
	}
}

// TestRetriedInsertNotDoubleApplied drops exactly one reply: the insert is
// applied at the node but the coordinator never hears back, retries, and
// the node's sequence-number dedup must swallow the duplicate delivery.
func TestRetriedInsertNotDoubleApplied(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 7})
	c := newChaosCluster(t, inj, catalog.StrategyAuxRel, 4, 2)

	before, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNext(fault.KindDropReply, 1)
	if err := c.Insert("orders", []types.Tuple{ord(500, 1, 5.0)}); err != nil {
		t.Fatalf("insert with dropped reply should succeed via retry: %v", err)
	}
	after, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("orders grew by %d rows, want exactly 1 (dedup failed)", len(after)-len(before))
	}
	if got := c.Metrics().Retries; got < 1 {
		t.Fatalf("Metrics.Retries = %d, want >= 1", got)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedModeReadsAndRecovery crashes a node and checks the
// degradation contract: maintenance statements fail fast with ErrDegraded
// and roll back cleanly, reads return the surviving rows tagged with
// ErrPartial, and Recover restores full service with consistent
// structures.
func TestDegradedModeReadsAndRecovery(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 11})
	c := newChaosCluster(t, inj, catalog.StrategyGlobalIndex, 6, 2)

	full, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	inj.Crash(2)
	// A broad insert discovers the crash (some bucket routes to node 2),
	// fails, and rolls back on the surviving nodes.
	batch := []types.Tuple{ord(600, 0, 1), ord(601, 1, 2), ord(602, 2, 3), ord(603, 3, 4), ord(604, 4, 5), ord(605, 5, 6)}
	if err := c.Insert("orders", batch); err == nil {
		t.Fatal("insert with a crashed node should fail")
	}
	if d := c.Degraded(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("Degraded() = %v, want [2]", d)
	}

	// Further maintenance fails fast.
	if err := c.Insert("orders", []types.Tuple{ord(700, 1, 1)}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert while degraded: %v, want ErrDegraded", err)
	}
	if _, err := c.Delete("orders", expr.True); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete while degraded: %v, want ErrDegraded", err)
	}
	tx := c.Begin()
	if err := tx.Insert("orders", []types.Tuple{ord(701, 1, 1)}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("txn insert while degraded: %v, want ErrDegraded", err)
	}
	_ = tx.Rollback()

	// Reads degrade to partial results.
	partial, err := c.TableRows("orders")
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("TableRows while degraded: %v, want ErrPartial", err)
	}
	if len(partial) == 0 || len(partial) >= len(full) {
		t.Fatalf("partial read returned %d of %d rows", len(partial), len(full))
	}
	if _, err := c.ViewRows("jv1"); !errors.Is(err, ErrPartial) {
		t.Fatalf("ViewRows while degraded: %v, want ErrPartial", err)
	}
	// Distributed joins cannot be partial; they refuse.
	if _, _, err := c.QueryJoin(QuerySpec{
		Tables: []string{"customer", "orders"},
		Joins:  []catalog.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
	}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("QueryJoin while degraded: %v, want ErrDegraded", err)
	}

	// Restart + Recover restores full service; the failed inserts left no
	// residue anywhere.
	inj.Restart(2)
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after recovery", got, full)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
	// Full service: DML works again.
	if err := c.Insert("orders", []types.Tuple{ord(800, 2, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidStatementRollsBack lands a crash in the middle of a
// multi-node insert: work already applied on surviving nodes must be
// compensated immediately, work on the crashed node repaired at Recover,
// and the statement must leave no trace.
func TestCrashMidStatementRollsBack(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 13})
			c := newChaosCluster(t, inj, strat, 6, 2)
			full, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}

			// The batch spans every node; the crash fires a few calls in,
			// after some of the statement's work has been applied.
			inj.CrashAfter(0, 3)
			batch := []types.Tuple{ord(900, 0, 1), ord(901, 1, 2), ord(902, 2, 3), ord(903, 3, 4), ord(904, 4, 5), ord(905, 5, 6)}
			if err := c.Insert("orders", batch); err == nil {
				t.Fatal("insert crossing a mid-statement crash should fail")
			}

			recoverAll(t, c, inj)
			got, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "orders after mid-statement crash", got, full)
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosStormMultiwayView runs a shorter storm against the three-way
// customer x orders x lineitem view, exercising delta propagation through
// a two-step join chain under faults.
func TestChaosStormMultiwayView(t *testing.T) {
	inj := fault.New(fault.Config{
		Seed:        21,
		DropRequest: 0.04,
		DropReply:   0.03,
		Duplicate:   0.04,
		HandlerErr:  0.04,
	})
	c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	ln := int64(0)
	var customers, orders, lines []types.Tuple
	for ck := int64(0); ck < 5; ck++ {
		customers = append(customers, cust(ck, float64(ck)))
		for o := int64(0); o < 2; o++ {
			okey := ck*2 + o + 1
			orders = append(orders, ord(okey, ck, float64(okey)))
			ln++
			lines = append(lines, li(okey, ln, float64(ln)))
		}
	}
	for tab, rows := range map[string][]types.Tuple{"customer": customers, "orders": orders, "lineitem": lines} {
		if err := c.Insert(tab, rows); err != nil {
			t.Fatal(err)
		}
		if err := c.RefreshStats(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateView(jv2Def("jv2", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}

	r := newRand(21)
	nextOK, nextLN := int64(1000), int64(1000)
	inj.Arm()
	for i := 0; i < 25; i++ {
		if len(c.Degraded()) > 0 || len(inj.DownNodes()) > 0 {
			if r.Float64() < 0.5 {
				recoverAll(t, c, inj)
				inj.Arm()
			}
		} else if r.Float64() < 0.08 {
			inj.Crash(r.Intn(4))
		}
		if r.Float64() < 0.5 {
			nextOK++
			_ = c.Insert("orders", []types.Tuple{ord(nextOK, int64(r.Intn(5)), float64(nextOK))})
		} else {
			nextLN++
			_ = c.Insert("lineitem", []types.Tuple{li(int64(1+r.Intn(10)), nextLN, float64(nextLN))})
		}
	}
	recoverAll(t, c, inj)

	if err := c.CheckViewConsistency("jv2"); err != nil {
		t.Fatalf("jv2 inconsistent after storm: %v", err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatalf("structures inconsistent after storm: %v", err)
	}
}

// TestRecoverSurvivesTransientFaults runs recovery itself over a faulty
// network: repair replay, in-doubt resolution and derived rebuild must
// retry transient failures (with dedup making the retries safe) instead
// of aborting.
func TestRecoverSurvivesTransientFaults(t *testing.T) {
	inj := fault.New(fault.Config{
		Seed:        31,
		DropRequest: 0.10,
		DropReply:   0.10,
		HandlerErr:  0.10,
	})
	c := newChaosCluster(t, inj, catalog.StrategyAuxRel, 6, 2)
	full, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-statement so repair work queues up for the dead node.
	inj.CrashAfter(1, 3)
	batch := []types.Tuple{ord(950, 0, 1), ord(951, 1, 2), ord(952, 2, 3), ord(953, 3, 4), ord(954, 4, 5), ord(955, 5, 6)}
	if err := c.Insert("orders", batch); err == nil {
		t.Fatal("insert crossing the crash should fail")
	}

	// Restart the node but keep the lossy schedule armed: Recover has to
	// fight through the same faults maintenance does.
	inj.Restart(1)
	inj.Arm()
	if err := c.Recover(1); err != nil {
		t.Fatalf("Recover under transient faults: %v", err)
	}
	inj.Disarm()
	if inj.Stats().Total() == 0 {
		t.Fatal("no faults injected during recovery")
	}

	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after faulty recovery", got, full)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

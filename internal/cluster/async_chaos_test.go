package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// newAsyncChaosCluster builds a loaded 4-node async-maintenance cluster
// on the chosen transport, wrapped in the (disarmed) injector, with a jv1
// view under the given strategy. No background flusher: the tests drive
// epochs explicitly so every phase boundary is deterministic.
func newAsyncChaosCluster(t *testing.T, inj *fault.Injector, strat catalog.Strategy, useChan bool) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 3, UseChannels: useChan, AsyncMaintenance: true})
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
	if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
		t.Fatal(err)
	}
	return c
}

// healAsync ends an async-flush fault episode: restart crashed nodes,
// run coordinator recovery for anything degraded, roll the interrupted
// epoch forward, then drain whatever is still pending.
func healAsync(t *testing.T, c *Cluster, inj *fault.Injector) {
	t.Helper()
	for _, n := range inj.DownNodes() {
		inj.Restart(n)
	}
	for _, n := range c.Degraded() {
		if err := c.Recover(n); err != nil {
			t.Fatalf("recover node %d: %v", n, err)
		}
	}
	if err := c.ResumeMaintenance(); err != nil {
		t.Fatalf("ResumeMaintenance: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("post-heal flush: %v", err)
	}
}

// TestAsyncChaosMatrix injects a coordinator failure or a node crash at
// each flush-phase boundary — enqueue, compact, flush, ack — under every
// maintenance strategy on both transports. Whatever the interruption, a
// heal (restart + recovery + ResumeMaintenance + Flush) must leave the
// stored state exactly the successful statements' mirror, with the view
// equal to a recomputed join: an enqueued delta is never lost and never
// applied twice.
func TestAsyncChaosMatrix(t *testing.T) {
	phases := []string{"enqueue", "compact", "flush", "ack"}
	victims := []string{"coordinator", "node"}
	for _, strat := range allStrategies {
		for _, useChan := range []bool{false, true} {
			transport := "direct"
			if useChan {
				transport = "chan"
			}
			for _, phase := range phases {
				for _, victim := range victims {
					strat, useChan, phase, victim := strat, useChan, phase, victim
					name := fmt.Sprintf("%s/%s/%s/%s", strat, transport, phase, victim)
					t.Run(name, func(t *testing.T) {
						runAsyncChaos(t, strat, useChan, phase, victim)
					})
				}
			}
		}
	}
}

func runAsyncChaos(t *testing.T, strat catalog.Strategy, useChan bool, phase, victim string) {
	inj := fault.New(fault.Config{Seed: 131})
	c := newAsyncChaosCluster(t, inj, strat, useChan)

	// Committed-statement mirror of the orders table: every statement that
	// returns success must be durable across the chaos, every failed one
	// must leave no trace.
	mirror := map[int64]types.Tuple{}
	rows, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		mirror[r[0].I] = r
	}

	apply := func(step string, key int64, del bool) {
		t.Helper()
		if del {
			got, err := c.Delete("orders", eqOrderKey(key))
			if err != nil {
				t.Logf("%s: delete %d interrupted: %v", step, key, err)
				return
			}
			if len(got) > 0 {
				delete(mirror, key)
			}
			return
		}
		tup := ord(key, key%8, float64(key))
		if err := c.Insert("orders", []types.Tuple{tup}); err != nil {
			t.Logf("%s: insert %d interrupted: %v", step, key, err)
			return
		}
		mirror[key] = tup
	}

	// A couple of deferred statements before the trigger arms, so the
	// interrupted epoch carries earlier entries too.
	apply("pre", 600, false)
	apply("pre", 1, true)

	switch victim {
	case "coordinator":
		inj.FailAtPhase(phase)
	case "node":
		inj.CrashAtPhase(phase, 1)
	}

	// Statements under the armed trigger: an "enqueue" trigger interrupts
	// one of these; the flush-side triggers interrupt the Flush below.
	apply("armed", 601, false)
	apply("armed", 602, false)
	apply("armed", 2, true)

	if err := c.Flush(); err != nil {
		t.Logf("interrupted flush: %v", err)
	}

	healAsync(t, c, inj)

	if w := c.Watermark(); w.Pending != 0 {
		t.Fatalf("queue not drained after heal: %+v", w)
	}
	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]types.Tuple, 0, len(mirror))
	for _, tup := range mirror {
		want = append(want, tup)
	}
	assertBagEqual(t, "orders after async chaos", got, want)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("view after async chaos: %v", err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatalf("structures after async chaos: %v", err)
	}

	// The cluster is fully operational: another deferred write flushes
	// cleanly.
	apply("post", 700, false)
	if err := c.Flush(); err != nil {
		t.Fatalf("post-chaos flush: %v", err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("view after post-chaos DML: %v", err)
	}
}

// TestAsyncOverlayInflightNoDoubleCount: the entries of an in-flight
// epoch stay in the pending queue until the epoch's done record, so a
// victim scan during that window sees them twice if the overlay is
// naive — once through the run's entry snapshot (or the applied base
// state, if the table's groups committed) and once through the raw
// pending list. A delete resolving phantom duplicate victims enqueues
// more removals than instances exist, and every later flush dies in
// locateTuples, wedging the queue. A flush interrupted at "flush"
// (groups unapplied) and at "ack" (groups applied, done record missing)
// covers both arms.
func TestAsyncOverlayInflightNoDoubleCount(t *testing.T) {
	for _, phase := range []string{"flush", "ack"} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 17})
			c := newAsyncChaosCluster(t, inj, catalog.StrategyAuto, false)
			if err := c.Insert("orders", []types.Tuple{ord(700, 3, 1)}); err != nil {
				t.Fatal(err)
			}
			inj.FailAtPhase(phase)
			if err := c.Flush(); err == nil {
				t.Fatalf("flush was not interrupted at %q", phase)
			}
			deleted, err := c.Delete("orders", eqOrderKey(700))
			if err != nil {
				t.Fatal(err)
			}
			if len(deleted) != 1 {
				t.Fatalf("delete during in-flight epoch found %d victims, want 1", len(deleted))
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("flush after in-flight delete: %v", err)
			}
			if w := c.Watermark(); w.Pending != 0 {
				t.Fatalf("queue wedged: %+v", w)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			rows, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r[0].I == 700 {
					t.Fatal("deleted order 700 still stored")
				}
			}
		})
	}
}

// TestAsyncOverloadBlockFlushFailure: with OverloadBlock and a
// background flusher, a persistently failing flush (a crashed node)
// must not trap blocked writers in a hot retry cycle with the flusher.
// The writer gets the flush failure back, wrapped in ErrOverload; after
// the node recovers and the queue drains, writes go through again.
func TestAsyncOverloadBlockFlushFailure(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 23})
	c, err := New(Config{Nodes: 4, Faults: inj, AsyncMaintenance: true,
		EpochSize: 2, MaxQueueDepth: 2, OverloadBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var customers []types.Tuple
	for ck := int64(0); ck < 8; ck++ {
		customers = append(customers, cust(ck, float64(ck)))
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		t.Fatal(err)
	}

	// Make every flush attempt fail until the test heals it: crash the
	// node that homes the first queued order. The crash is discovered by
	// the background flusher (woken at EpochSize=2), which parks the
	// failure in lastErr; its retries keep failing against the dead
	// node, so the queue stays at its depth bound whichever of flusher
	// retry and third writer runs first.
	victim := c.Catalog().Partitioner().NodeFor(types.Int(750))
	inj.Crash(victim)
	for i := int64(0); i < 2; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(750+i, i, 1)}); err != nil {
			t.Fatalf("writer %d under failing flush: %v", i, err)
		}
	}
	// The queue is full and not draining: the next writer must return
	// the wrapped failure in bounded time, not block forever re-waking
	// the flusher into a hot retry cycle.
	errc := make(chan error, 1)
	go func() { errc <- c.Insert("orders", []types.Tuple{ord(760, 3, 1)}) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("blocked writer got %v, want ErrOverload-wrapped flush failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked writer hung under a persistently failing flush")
	}

	// Heal: restart and recover the node, roll the interrupted epoch
	// forward and drain the queue; the shed write then retries cleanly.
	healAsync(t, c, inj)
	if err := c.Insert("orders", []types.Tuple{ord(760, 3, 1)}); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncDurableRecoveryKeepsEnqueueAge: rebuilding the queue from the
// coordinator log must restore each entry's original enqueue time, so
// Watermark.Lag (and MaxStaleness admission) measure from the enqueue,
// not from the restart.
func TestAsyncDurableRecoveryKeepsEnqueueAge(t *testing.T) {
	c, err := New(Config{Nodes: 4, Durability: true, AsyncMaintenance: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable(ordersTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []types.Tuple{ord(1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	const age = 30 * time.Millisecond
	time.Sleep(age)
	// ResumeMaintenance rebuilds the pending queue purely from the log —
	// the coordinator-restart path.
	if err := c.ResumeMaintenance(); err != nil {
		t.Fatal(err)
	}
	w := c.Watermark()
	if w.Pending != 1 {
		t.Fatalf("rebuild lost entries: %+v", w)
	}
	if w.Lag < age {
		t.Fatalf("Lag = %v after rebuild, want >= %v (enqueue age reset)", w.Lag, age)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncDurableKillRestart runs the queue against the durable (WAL +
// 2PC) cluster through a kill-restart storm at flush boundaries: nodes
// fail-stop and lose volatile state, the coordinator "dies" at phase
// boundaries after its plan or group-commit records are forced, and
// ResumeMaintenance must rebuild the queue from the log and roll the
// interrupted epoch forward — re-applying exactly the groups without a
// tagged commit record.
func TestAsyncDurableKillRestart(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 59})
			c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 4, Durability: true, AsyncMaintenance: true})
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
			for ck := int64(0); ck < 6; ck++ {
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
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			// Round 1: a node fail-stops at the first group's apply. The
			// epoch plan is already forced; recovery must re-run exactly
			// the unapplied groups. Two tables are queued so the epoch has
			// two groups.
			if err := c.Insert("customer", []types.Tuple{cust(50, 1)}); err != nil {
				t.Fatal(err)
			}
			if err := c.Insert("orders", []types.Tuple{ord(500, 50, 5), ord(501, 3, 6)}); err != nil {
				t.Fatal(err)
			}
			inj.CrashAtPhase("flush", 1)
			if err := c.Flush(); err != nil {
				t.Logf("round 1 interrupted: %v", err)
			}
			recoverAllDurable(t, c, inj)
			if err := c.ResumeMaintenance(); err != nil {
				t.Fatalf("resume after round 1: %v", err)
			}
			if w := c.Watermark(); w.Pending != 0 {
				t.Fatalf("round 1 left pending: %+v", w)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatalf("round 1: %v", err)
			}
			assertNoInDoubt(t, c)

			// Round 2: the coordinator dies between the last group's
			// tagged commit and the epoch-done record ("ack"). Recovery
			// finds every group committed and must not re-apply any.
			if err := c.Insert("orders", []types.Tuple{ord(510, 4, 1)}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Delete("orders", eqOrderKey(1)); err != nil {
				t.Fatal(err)
			}
			inj.FailAtPhase("ack")
			if err := c.Flush(); err != nil {
				t.Logf("round 2 interrupted: %v", err)
			}
			if err := c.ResumeMaintenance(); err != nil {
				t.Fatalf("resume after round 2: %v", err)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatalf("round 2 (double apply?): %v", err)
			}

			// Round 3: the coordinator dies before the epoch plan is
			// durable ("compact"): only the enqueue records exist.
			// Recovery rebuilds the pending queue from them and a clean
			// flush applies everything once.
			if err := c.Insert("orders", []types.Tuple{ord(520, 5, 2)}); err != nil {
				t.Fatal(err)
			}
			inj.FailAtPhase("compact")
			if err := c.Flush(); err != nil {
				t.Logf("round 3 interrupted: %v", err)
			}
			if err := c.ResumeMaintenance(); err != nil {
				t.Fatalf("resume after round 3: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("final flush: %v", err)
			}
			if w := c.Watermark(); w.Pending != 0 {
				t.Fatalf("final state left pending: %+v", w)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
			assertNoInDoubt(t, c)

			rows, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			saw := map[int64]bool{}
			count := map[int64]int{}
			for _, r := range rows {
				saw[r[0].I] = true
				count[r[0].I]++
			}
			for _, k := range []int64{500, 501, 510, 520} {
				if !saw[k] {
					t.Errorf("enqueued order %d lost across the storm", k)
				}
				if count[k] > 1 {
					t.Errorf("order %d applied %d times", k, count[k])
				}
			}
			if saw[1] {
				t.Error("deleted order 1 resurrected")
			}
		})
	}
}

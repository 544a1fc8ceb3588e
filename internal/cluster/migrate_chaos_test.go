package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// newMigrationChaosCluster builds a loaded 4-node cluster on the chosen
// transport, wrapped in the (disarmed) injector, with a jv1 view under
// the given strategy, at replication factor rf.
func newMigrationChaosCluster(t *testing.T, inj *fault.Injector, strat catalog.Strategy, useChan bool, rf int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, Faults: inj, RetryAttempts: 3, UseChannels: useChan, ReplicationFactor: rf})
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

// healMigration ends a migration fault episode: restart crashed nodes at
// the transport, run coordinator recovery for anything marked degraded,
// then drive every undecided migration in the WAL to a decision.
func healMigration(t *testing.T, c *Cluster, inj *fault.Injector) {
	t.Helper()
	for _, n := range inj.DownNodes() {
		inj.Restart(n)
	}
	for _, n := range c.Degraded() {
		if err := c.Recover(n); err != nil {
			t.Fatalf("recover node %d: %v", n, err)
		}
	}
	if err := c.ResumeMigrations(); err != nil {
		t.Fatalf("ResumeMigrations: %v", err)
	}
}

// TestMigrationChaosMatrix injects a coordinator failure, a source-node
// crash, or a destination-node crash at each migration phase boundary,
// under every maintenance strategy, on both transports. Whatever the
// outcome of the interrupted expansion (clean abort, deferred abort, or
// committed-with-cleanup-pending), healing plus a retried rebalance must
// converge to a consistent 5-node cluster: view == recomputed join and
// every auxiliary structure placed correctly. One more row runs the
// pre-commit node-crash cells at ReplicationFactor 2, where the crashed
// node additionally fails over and is re-replicated and the follower
// shadows must come out byte-identical to the primaries.
func TestMigrationChaosMatrix(t *testing.T) {
	phases := []string{"copy", "cutover", "cleanup"}
	victims := []string{"coordinator", "source", "destination"}
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
						runMigrationChaos(t, strat, useChan, phase, victim, 1)
					})
				}
			}
		}
	}
	for _, phase := range []string{"copy", "cutover"} {
		for _, victim := range []string{"source", "destination"} {
			phase, victim := phase, victim
			t.Run(fmt.Sprintf("rf2/%s/direct/%s/%s", catalog.StrategyGlobalIndex, phase, victim), func(t *testing.T) {
				runMigrationChaos(t, catalog.StrategyGlobalIndex, false, phase, victim, 2)
			})
		}
	}
}

func runMigrationChaos(t *testing.T, strat catalog.Strategy, useChan bool, phase, victim string, rf int) {
	inj := fault.New(fault.Config{Seed: 97})
	c := newMigrationChaosCluster(t, inj, strat, useChan, rf)
	wantOrders, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}

	switch victim {
	case "coordinator":
		inj.FailAtPhase(phase)
	case "source":
		inj.CrashAtPhase(phase, 0) // rebalance steals slots from nodes 0,1,2
	case "destination":
		inj.CrashAtPhase(phase, 4)
	}

	_, addErr := c.AddNode()
	if addErr != nil {
		t.Logf("interrupted expansion: %v", addErr)
	}

	// A destination that dies before the commit point leaves residue the
	// rollback cannot reach: the migration stays undecided, and the error
	// must say so rather than claim a clean abort.
	if victim == "destination" && phase != "cleanup" {
		if addErr == nil || !strings.Contains(addErr.Error(), "rollback pending") ||
			!strings.Contains(addErr.Error(), "run ResumeMigrations") {
			t.Fatalf("expansion with a dead destination = %v, want rollback pending: run ResumeMigrations", addErr)
		}
	}

	// While the crashed node is still down, reads must degrade to partial
	// results instead of failing outright or blocking — or, replicated,
	// fail over and stay complete.
	if victim != "coordinator" && len(inj.DownNodes()) > 0 {
		if rf > 1 {
			// The statement that discovers the crash fails over and commits.
			if err := c.Insert("orders", []types.Tuple{ord(4000, 1, 1)}); err != nil {
				t.Fatalf("replicated insert with a crashed node: %v", err)
			}
			if _, err := c.Delete("orders", eqOrderKey(4000)); err != nil {
				t.Fatalf("replicated delete with a crashed node: %v", err)
			}
		}
		_, rerr := c.TableRows("orders")
		if rf == 1 && rerr == nil {
			t.Fatal("read with a crashed node should report a partial result")
		}
		if rf > 1 && rerr != nil {
			t.Fatalf("replicated read with a crashed node: %v, want a complete result", rerr)
		}
	}

	healMigration(t, c, inj)
	if err := c.RebalanceNode(4); err != nil {
		t.Fatalf("retried rebalance: %v", err)
	}

	if got := c.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5", got)
	}
	top := c.Topology()
	owned := 0
	for _, o := range top.SlotOwner {
		if o == 4 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("node 4 owns no slots after retried rebalance")
	}
	if top.InFlight != nil {
		t.Fatalf("migration still registered: %+v", top.InFlight)
	}

	got, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "orders after chaos", got, wantOrders)
	assertElasticConsistent(t, c, "after chaos")
	if rf > 1 {
		checkReplicaConsistency(t, c)
	}

	// The cluster is fully operational: DML routes under the final map.
	if err := c.Insert("orders", []types.Tuple{ord(5000, 3, 7)}); err != nil {
		t.Fatalf("insert after chaos: %v", err)
	}
	assertElasticConsistent(t, c, "after post-chaos DML")
	if rf > 1 {
		checkReplicaConsistency(t, c)
	}
}

// TestMigrationWithConcurrentDML expands the cluster while worker
// sessions keep inserting and deleting on the parallel (channel,
// fault-free) execution path: no statement may fail, the live mirror
// must carry the concurrent writes to the destination, and the final
// state must be consistent with the committed-statement mirror.
func TestMigrationWithConcurrentDML(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c, err := New(Config{Nodes: 4, UseChannels: true})
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
			for ck := int64(0); ck < 10; ck++ {
				customers = append(customers, cust(ck, float64(ck)))
				for o := 0; o < 2; o++ {
					ok++
					orders = append(orders, ord(ok, ck, float64(ok)))
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

			// Committed-statement mirror of the orders table.
			var mu sync.Mutex
			mirror := map[int64]types.Tuple{}
			for _, o := range orders {
				mirror[o[0].I] = o
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			workerErr := make(chan error, 4)
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					next := int64(10000 + w*10000)
					var mine []int64
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if i%3 == 2 && len(mine) > 0 {
							k := mine[0]
							mine = mine[1:]
							if _, err := c.Delete("orders",
								expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k)}}); err != nil {
								workerErr <- fmt.Errorf("worker %d delete %d: %w", w, k, err)
								return
							}
							mu.Lock()
							delete(mirror, k)
							mu.Unlock()
						} else {
							next++
							tup := ord(next, next%10, float64(next))
							if err := c.Insert("orders", []types.Tuple{tup}); err != nil {
								workerErr <- fmt.Errorf("worker %d insert %d: %w", w, next, err)
								return
							}
							mu.Lock()
							mirror[next] = tup
							mu.Unlock()
							mine = append(mine, next)
						}
					}
				}()
			}

			dst, err := c.AddNode()
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("AddNode under concurrent DML: %v", err)
			}
			select {
			case werr := <-workerErr:
				t.Fatalf("statement failed during migration: %v", werr)
			default:
			}

			stats, okm := c.LastMigration()
			if !okm || !stats.Committed {
				t.Fatalf("migration not committed: %+v", stats)
			}
			t.Logf("migration under load: %+v", stats)

			got, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			want := make([]types.Tuple, 0, len(mirror))
			for _, tup := range mirror {
				want = append(want, tup)
			}
			mu.Unlock()
			assertBagEqual(t, "orders after concurrent migration", got, want)
			assertElasticConsistent(t, c, "after concurrent migration")
			if n := len(nodeRows(t, c, dst, "orders")); n == 0 {
				t.Fatal("new node holds no orders rows")
			}
		})
	}
}

// TestMigrationDurableKillRestart runs expansions against the durable
// (WAL + 2PC) cluster through a kill-restart storm: nodes fail-stop at
// migration phase boundaries, lose all volatile state, and come back via
// checkpoint + log replay; the retried rebalance must converge with the
// view byte-identical to a recompute.
func TestMigrationDurableKillRestart(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 53})
			c := newDurableChaosCluster(t, inj, strat, 6, 2, 0)
			wantOrders, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}

			// Round 1: source node fail-stops during the snapshot copy.
			inj.CrashAtPhase("copy:orders", 0)
			if _, err := c.AddNode(); err != nil {
				t.Logf("round 1 interrupted: %v", err)
			}
			recoverAllDurable(t, c, inj)
			if err := c.ResumeMigrations(); err != nil {
				t.Fatalf("resume after round 1: %v", err)
			}

			// Round 2: destination fail-stops at the cutover boundary.
			inj.CrashAtPhase("cutover", 4)
			if err := c.RebalanceNode(4); err != nil {
				t.Logf("round 2 interrupted: %v", err)
			}
			recoverAllDurable(t, c, inj)
			if err := c.ResumeMigrations(); err != nil {
				t.Fatalf("resume after round 2: %v", err)
			}

			// Round 3: clean retry must complete.
			if err := c.RebalanceNode(4); err != nil {
				t.Fatalf("final rebalance: %v", err)
			}

			got, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "orders after durable storm", got, wantOrders)
			assertElasticConsistent(t, c, "after durable storm")
			assertNoInDoubt(t, c)

			// DML under 2PC keeps working on the expanded cluster.
			if err := c.Insert("orders", []types.Tuple{ord(7000, 2, 3)}); err != nil {
				t.Fatal(err)
			}
			assertElasticConsistent(t, c, "after post-storm DML")
		})
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// newReplicatedTPCR builds a replicated cluster with the three test tables
// loaded (same data as newTPCR).
func newReplicatedTPCR(t testing.TB, cfg Config, nCust, ordersPer, linesPer int) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var customers, orders, lines []types.Tuple
	ok := int64(0)
	ln := int64(0)
	for ck := int64(0); ck < int64(nCust); ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < ordersPer; o++ {
			ok++
			orders = append(orders, ord(ok, ck, float64(ok)*10))
			for l := 0; l < linesPer; l++ {
				ln++
				lines = append(lines, li(ok, ln, float64(ln)))
			}
		}
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	if linesPer > 0 {
		if err := c.Insert("lineitem", lines); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// replFrags lists every cataloged fragment with its partition-column
// index: base tables, auxiliary relations and views.
func replFrags(t testing.TB, c *Cluster) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, tn := range c.Catalog().Tables() {
		tab, err := c.Catalog().Table(tn)
		if err != nil {
			t.Fatal(err)
		}
		out[tn] = tab.Schema.MustColIndex(tab.PartitionCol)
		for _, ar := range c.Catalog().AuxRelsFor(tn) {
			out[ar.Name] = ar.Schema.MustColIndex(ar.PartitionCol)
		}
	}
	for _, vn := range c.Catalog().Views() {
		v, err := c.Catalog().View(vn)
		if err != nil {
			t.Fatal(err)
		}
		out[vn] = v.Schema.MustColIndex(v.PartitionQualified())
	}
	return out
}

func sortTuples(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}

func tuplesEqual(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// checkReplicaConsistency verifies the replication invariant on every live
// node: a node's shadow fragments hold exactly (byte-identical to the
// primaries) the rows of the hash slots it follows, and its shadow
// global-index fragments the entries of the values it follows.
func checkReplicaConsistency(t testing.TB, c *Cluster) {
	t.Helper()
	m := c.Catalog().Partitioner().Map()
	if !m.Replicated() {
		t.Fatal("map is not replicated")
	}
	follows := make([]map[int]bool, c.NumNodes())
	for f := range follows {
		follows[f] = map[int]bool{}
	}
	for s, fs := range m.Repl {
		for _, f := range fs {
			follows[f][s] = true
		}
	}
	for frag, pi := range replFrags(t, c) {
		// Primary rows bucketed by slot.
		slotRows := map[int][]types.Tuple{}
		for n := 0; n < c.NumNodes(); n++ {
			if c.isDown(n) {
				continue
			}
			resp, err := c.rawDeliver(n, node.Scan{Frag: frag, Unmetered: true})
			if err != nil {
				t.Fatalf("read %q at node %d: %v", frag, n, err)
			}
			for _, tup := range resp.(node.RowsResult).Tuples {
				s := m.Slot(tup[pi])
				slotRows[s] = append(slotRows[s], tup)
			}
		}
		for f := 0; f < c.NumNodes(); f++ {
			if c.isDown(f) {
				continue
			}
			var want []types.Tuple
			for s := range follows[f] {
				want = append(want, slotRows[s]...)
			}
			resp, err := c.rawDeliver(f, node.Scan{Frag: shadowName(frag), Unmetered: true})
			if err != nil {
				t.Fatalf("read %q at node %d: %v", shadowName(frag), f, err)
			}
			got := append([]types.Tuple(nil), resp.(node.RowsResult).Tuples...)
			sortTuples(want)
			sortTuples(got)
			if !tuplesEqual(want, got) {
				t.Errorf("node %d shadow of %q diverged: %d rows, want %d\n got: %v\nwant: %v",
					f, frag, len(got), len(want), got, want)
			}
		}
	}
	// Global indexes: shadow entries must mirror the primaries' per-slot
	// entries.
	for _, tn := range c.Catalog().Tables() {
		for _, gi := range c.Catalog().GlobalIndexesFor(tn) {
			type ent struct {
				v types.Value
				g storage.GlobalRowID
			}
			slotEnts := map[int][]ent{}
			for n := 0; n < c.NumNodes(); n++ {
				if c.isDown(n) {
					continue
				}
				resp, err := c.rawDeliver(n, node.GIScan{GI: gi.Name})
				if err != nil {
					t.Fatalf("scan %q at node %d: %v", gi.Name, n, err)
				}
				gr := resp.(node.GIScanResult)
				for i, v := range gr.Vals {
					s := m.Slot(v)
					slotEnts[s] = append(slotEnts[s], ent{v, gr.Gs[i]})
				}
			}
			key := func(e ent) string {
				return fmt.Sprintf("%v/%d/%d", e.v, e.g.Node, e.g.Row)
			}
			for f := 0; f < c.NumNodes(); f++ {
				if c.isDown(f) {
					continue
				}
				var want []string
				for s := range follows[f] {
					for _, e := range slotEnts[s] {
						want = append(want, key(e))
					}
				}
				resp, err := c.rawDeliver(f, node.GIScan{GI: shadowName(gi.Name)})
				if err != nil {
					t.Fatalf("scan %q at node %d: %v", shadowName(gi.Name), f, err)
				}
				gr := resp.(node.GIScanResult)
				var got []string
				for i, v := range gr.Vals {
					got = append(got, key(ent{v, gr.Gs[i]}))
				}
				sort.Strings(want)
				sort.Strings(got)
				if len(want) != len(got) {
					t.Errorf("node %d shadow of %q diverged: %d entries, want %d", f, gi.Name, len(got), len(want))
					continue
				}
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("node %d shadow of %q entry %d: %s, want %s", f, gi.Name, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestReplicationConfigValidation checks the Config guards.
func TestReplicationConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 2, ReplicationFactor: 3}); err == nil {
		t.Fatal("ReplicationFactor > Nodes should be refused")
	}
	if _, err := New(Config{Nodes: 2, ReplicationFactor: -1}); err == nil {
		t.Fatal("negative ReplicationFactor should be refused")
	}
	c, err := New(Config{Nodes: 2, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, err = New(Config{Nodes: 3, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Catalog().Partitioner().Map()
	if !m.Replicated() {
		t.Fatal("RF=3 map not replicated")
	}
	for s := range m.Owner {
		if len(m.Repl[s]) != 2 {
			t.Fatalf("slot %d has %d followers, want 2", s, len(m.Repl[s]))
		}
	}
}

// TestReplicationElasticity changes the topology of an RF=2 cluster under
// each strategy — AddNode, DecommissionNode, RebalanceNode back onto the
// drained node — with DML before and after every step, and requires the
// replication invariant (shadows byte-identical to the primaries' slots),
// every structure and the view to hold throughout. It then crashes the new
// owner of a moved slot: the cluster must serve exactly as
// TestFailoverServesCompleteAfterCrash demands, which it can only do if the
// moved slots' followers moved with their owners.
func TestReplicationElasticity(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 7})
			c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 3}, 6, 2, 0)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			next, orders := int64(600), 6*2
			dml := func(label string) {
				t.Helper()
				for i := 0; i < 6; i++ {
					next++
					if err := c.Insert("orders", []types.Tuple{ord(next, next%6, 1.0)}); err != nil {
						t.Fatalf("%s: insert %d: %v", label, next, err)
					}
				}
				if _, err := c.Delete("orders", eqOrderKey(next-2)); err != nil {
					t.Fatalf("%s: delete: %v", label, err)
				}
				orders += 5
			}
			check := func(label string) {
				t.Helper()
				checkReplicaConsistency(t, c)
				if err := c.CheckAllStructures(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := c.CheckViewConsistency("jv1"); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rows, err := c.TableRows("orders")
				if err != nil || len(rows) != orders {
					t.Fatalf("%s: TableRows = %d rows (%v), want %d", label, len(rows), err, orders)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			owns := func(n int) (slots int) {
				for _, o := range c.Topology().SlotOwner {
					if o == n {
						slots++
					}
				}
				return slots
			}

			dml("before expansion")
			// A destination that already follows the slot: promoted without a
			// copy, the source demoted to follower in its place.
			cur := c.Catalog().Partitioner().Map()
			swap := cur.Clone()
			src, flw := cur.Owner[0], cur.Repl[0][0]
			reassign(swap, 0, flw, true)
			swap.Epoch++
			if err := c.migrate(cur, swap, map[int]migMove{0: {Src: src, Dst: flw}}); err != nil {
				t.Fatalf("owner/follower swap: %v", err)
			}
			if top := c.Topology(); top.SlotOwner[0] != flw || len(top.Replicas[0]) != 1 || top.Replicas[0][0] != src {
				t.Fatalf("slot 0 after swap: owner %d followers %v, want %d and [%d]", top.SlotOwner[0], top.Replicas[0], flw, src)
			}
			if st, _ := c.LastMigration(); !st.Committed || st.RowsCopied != 0 {
				t.Fatalf("swap migration = %+v, want committed with nothing copied", st)
			}
			check("after owner/follower swap")
			dml("after owner/follower swap")
			check("after post-swap DML")

			dst, err := c.AddNode()
			if err != nil {
				t.Fatalf("AddNode at RF=2: %v", err)
			}
			if dst != 4 || owns(4) == 0 {
				t.Fatalf("AddNode = node %d owning %d slots, want node 4 with a share", dst, owns(4))
			}
			if st, ok := c.LastMigration(); !ok || !st.Committed || st.RowsCopied == 0 {
				t.Fatalf("LastMigration = %+v, want a committed copy", st)
			}
			check("after AddNode")
			dml("after AddNode")
			check("after post-expansion DML")

			if err := c.DecommissionNode(1); err != nil {
				t.Fatalf("DecommissionNode at RF=2: %v", err)
			}
			top := c.Topology()
			for s, o := range top.SlotOwner {
				if o == 1 || containsInt(top.Replicas[s], 1) {
					t.Fatalf("slot %d still held by decommissioned node 1 (owner %d, followers %v)", s, o, top.Replicas[s])
				}
				if len(top.Replicas[s]) != 1 {
					t.Fatalf("slot %d has followers %v after the drain, want full strength", s, top.Replicas[s])
				}
			}
			check("after DecommissionNode")
			dml("after DecommissionNode")
			check("after post-drain DML")

			if err := c.RebalanceNode(1); err != nil {
				t.Fatalf("RebalanceNode at RF=2: %v", err)
			}
			if owns(1) == 0 || len(c.Topology().Retired) != 0 {
				t.Fatalf("node 1 owns %d slots, retired %v after rebalancing onto it", owns(1), c.Topology().Retired)
			}
			check("after RebalanceNode")
			dml("after RebalanceNode")
			check("after post-rebalance DML")

			// Crash the new owner of the moved slots.
			before, err := c.ViewRows("jv1")
			if err != nil {
				t.Fatal(err)
			}
			inj.Crash(4)
			for i := int64(0); i < 10; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(900+i, i%6, 1.0)}); err != nil {
					t.Fatalf("insert %d after crash: %v", i, err)
				}
			}
			if _, err := c.Delete("orders", eqOrderKey(901)); err != nil {
				t.Fatalf("delete after crash: %v", err)
			}
			orders += 9
			rows, err := c.TableRows("orders")
			if err != nil || len(rows) != orders {
				t.Fatalf("TableRows after crash = %d rows (%v), want %d complete", len(rows), err, orders)
			}
			got, err := c.ViewRows("jv1")
			if err != nil || len(got) != len(before)+9 {
				t.Fatalf("ViewRows after crash = %d rows (%v), want %d", len(got), err, len(before)+9)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if ms := c.Metrics().Repl; ms.Failovers != 1 || ms.PromotedSlots == 0 {
				t.Fatalf("Repl metrics = %+v, want 1 failover with promoted slots", ms)
			}
			inj.Restart(4)
			if err := c.ReplicateRepair(); err != nil {
				t.Fatalf("ReplicateRepair: %v", err)
			}
			if d := c.Degraded(); len(d) != 0 {
				t.Fatalf("still degraded after repair: %v", d)
			}
			check("after repair")
			dml("after repair")
			check("after post-repair DML")
		})
	}
}

// TestReplicationElasticityConcurrentDML runs AddNode, DecommissionNode
// (with its re-replication round) and RebalanceNode at RF=2 on the parallel
// execution path while four sessions keep inserting and deleting: no
// statement may fail, and afterwards every shadow must be byte-identical to
// its primaries' slots — the live mirror reached the moving slots'
// destinations and the drafted followers exactly once.
func TestReplicationElasticityConcurrentDML(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, UseChannels: true}, 10, 2, 0)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
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
							if _, err := c.Delete("orders", eqOrderKey(mine[0])); err != nil {
								workerErr <- fmt.Errorf("worker %d delete %d: %w", w, mine[0], err)
								return
							}
							mine = mine[1:]
							continue
						}
						next++
						if err := c.Insert("orders", []types.Tuple{ord(next, next%10, 1)}); err != nil {
							workerErr <- fmt.Errorf("worker %d insert %d: %w", w, next, err)
							return
						}
						mine = append(mine, next)
					}
				}()
			}
			_, err := c.AddNode()
			if err == nil {
				err = c.DecommissionNode(1)
			}
			if err == nil {
				err = c.RebalanceNode(1)
			}
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("topology change under concurrent DML: %v", err)
			}
			select {
			case werr := <-workerErr:
				t.Fatalf("statement failed during a topology change: %v", werr)
			default:
			}
			checkReplicaConsistency(t, c)
			assertElasticConsistent(t, c, "after concurrent RF=2 topology changes")
		})
	}
}

// TestReplicaConsistencyProperty runs randomized DML (inserts, deletes,
// updates, all three view strategies) at RF=2 and RF=3 and verifies after
// every batch that each node's shadows are byte-identical to the
// primaries' rows of the slots it follows — base tables, auxiliary
// relations, global indexes and view fragments alike.
func TestReplicaConsistencyProperty(t *testing.T) {
	for _, k := range []int{2, 3} {
		for si, strat := range allStrategies {
			k, strat, si := k, strat, si
			t.Run(fmt.Sprintf("rf%d/%s", k, strat), func(t *testing.T) {
				c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: k}, 6, 2, 0)
				if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
					t.Fatal(err)
				}
				checkReplicaConsistency(t, c)
				rng := rand.New(rand.NewSource(int64(100*k + si)))
				nextOK := int64(1000)
				for round := 0; round < 6; round++ {
					for i := 0; i < 5; i++ {
						switch rng.Intn(3) {
						case 0:
							nextOK++
							if err := c.Insert("orders", []types.Tuple{
								ord(nextOK, rng.Int63n(6), float64(nextOK)),
							}); err != nil {
								t.Fatalf("insert: %v", err)
							}
						case 1:
							pred := expr.Cmp{Op: expr.EQ,
								L: expr.Col{Name: "orderkey"},
								R: expr.Const{V: types.Int(rng.Int63n(nextOK))}}
							if _, err := c.Delete("orders", pred); err != nil {
								t.Fatalf("delete: %v", err)
							}
						case 2:
							pred := expr.Cmp{Op: expr.EQ,
								L: expr.Col{Name: "custkey"},
								R: expr.Const{V: types.Int(rng.Int63n(6))}}
							if _, err := c.Update("customer",
								map[string]types.Value{"acctbal": types.Float(float64(round))}, pred); err != nil {
								t.Fatalf("update: %v", err)
							}
						}
					}
					checkReplicaConsistency(t, c)
				}
				if err := c.CheckViewConsistency("jv1"); err != nil {
					t.Fatal(err)
				}
				if err := c.CheckAllStructures(); err != nil {
					t.Fatal(err)
				}
				if c.Metrics().Repl.Mirrors == 0 {
					t.Fatal("no mirrored writes recorded")
				}
			})
		}
	}
}

// TestReplicaShadowRollback verifies shadows track statement rollbacks: a
// statement that fails mid-flight undoes its mirrored writes too.
func TestReplicaShadowRollback(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 5})
	c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 2}, 4, 2, 0)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	checkReplicaConsistency(t, c)
	// Poison enough deliveries that the statement exhausts its retries and
	// rolls back (non-transient handler errors are not retried).
	inj.FailNext(fault.KindHandlerErr, 8)
	inj.Arm()
	err := c.Insert("orders", []types.Tuple{ord(500, 1, 5.0), ord(501, 2, 5.0), ord(502, 3, 5.0)})
	inj.Disarm()
	if err == nil {
		// The storm may have been absorbed entirely by retries; only a
		// failed statement exercises the rollback path.
		t.Skip("fault storm absorbed by retries; no rollback to check")
	}
	// Drain any one-shot faults the short statement left queued (FailNext
	// fires regardless of arming) so the consistency scans read cleanly.
	for i := 0; i < 8; i++ {
		for n := 0; n < c.NumNodes(); n++ {
			c.rawDeliver(n, node.Ping{})
		}
	}
	// The rolled-back orderkeys must appear in no live node's main or
	// shadow fragment: the compensations were mirrored, including the ones
	// absorbed against a node the fault storm marked down.
	phantoms := func(stage string) {
		t.Helper()
		for _, frag := range []string{"orders", shadowName("orders")} {
			for n := 0; n < c.NumNodes(); n++ {
				if c.isDown(n) {
					continue
				}
				resp, rerr := c.rawDeliver(n, node.Scan{Frag: frag, Unmetered: true})
				if rerr != nil {
					t.Fatalf("%s: read %q at node %d: %v", stage, frag, n, rerr)
				}
				for _, tup := range resp.(node.RowsResult).Tuples {
					if k := tup[0].I; k >= 500 && k <= 502 {
						t.Errorf("%s: aborted row %v survives in %q at node %d", stage, tup, frag, n)
					}
				}
			}
		}
	}
	phantoms("before repair")
	// Repair revives the down-marked node, promotes, wipes and recopies;
	// afterwards the full invariant must hold and no phantom may have been
	// promoted out of a follower shadow.
	if err := c.ReplicateRepair(); err != nil {
		t.Fatalf("ReplicateRepair: %v", err)
	}
	phantoms("after repair")
	checkReplicaConsistency(t, c)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverServesCompleteAfterCrash crashes one node at RF=2 and
// asserts the cluster keeps full service with zero statement errors and
// zero partial reads: DML commits on the survivors, reads return complete
// results, and the view stays exactly its definition.
func TestFailoverServesCompleteAfterCrash(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 7})
			c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 3}, 6, 2, 0)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			before, err := c.ViewRows("jv1")
			if err != nil {
				t.Fatal(err)
			}

			inj.Crash(2)

			// Every statement must succeed: the first to notice the crash
			// heals (promotes node 2's slots) and retries internally.
			for i := int64(0); i < 10; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(600+i, i%6, 1.0)}); err != nil {
					t.Fatalf("insert %d after crash: %v", i, err)
				}
			}
			if _, err := c.Delete("orders", expr.Cmp{Op: expr.EQ,
				L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(601)}}); err != nil {
				t.Fatalf("delete after crash: %v", err)
			}

			// Reads are complete, never partial.
			rows, err := c.TableRows("orders")
			if err != nil {
				t.Fatalf("TableRows after crash: %v", err)
			}
			wantOrders := 6*2 + 10 - 1
			if len(rows) != wantOrders {
				t.Fatalf("TableRows = %d rows, want %d", len(rows), wantOrders)
			}
			got, err := c.ViewRows("jv1")
			if err != nil {
				t.Fatalf("ViewRows after crash: %v", err)
			}
			if len(got) != len(before)+10-1 {
				t.Fatalf("view has %d rows, want %d", len(got), len(before)+10-1)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if ms := c.Metrics().Repl; ms.Failovers != 1 || ms.PromotedSlots == 0 {
				t.Fatalf("Repl metrics = %+v, want 1 failover with promoted slots", ms)
			}

			// Repair: restart the node and re-replicate. Full strength and
			// the shadow invariant must hold again.
			inj.Restart(2)
			if err := c.ReplicateRepair(); err != nil {
				t.Fatalf("ReplicateRepair: %v", err)
			}
			if d := c.Degraded(); len(d) != 0 {
				t.Fatalf("still degraded after repair: %v", d)
			}
			checkReplicaConsistency(t, c)
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
			// And the revived node serves DML again.
			for i := int64(0); i < 6; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(700+i, i%6, 2.0)}); err != nil {
					t.Fatalf("insert %d after repair: %v", i, err)
				}
			}
			checkReplicaConsistency(t, c)
		})
	}
}

// TestFailoverDoubleCrash loses two nodes (sequentially) at RF=3 and
// still expects full service; at RF=2 the second crash of an adjacent
// node may orphan a slot, which must surface as ErrDegraded, not silent
// data loss.
func TestFailoverDoubleCrash(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 9})
	c := newReplicatedTPCR(t, Config{Nodes: 5, ReplicationFactor: 3, Faults: inj, RetryAttempts: 3}, 6, 2, 0)
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuxRel)); err != nil {
		t.Fatal(err)
	}
	inj.Crash(1)
	for i := int64(0); i < 4; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(800+i, i%6, 1.0)}); err != nil {
			t.Fatalf("insert %d after first crash: %v", i, err)
		}
	}
	inj.Crash(3)
	for i := int64(0); i < 4; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(810+i, i%6, 1.0)}); err != nil {
			t.Fatalf("insert %d after second crash: %v", i, err)
		}
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	inj.Restart(1)
	inj.Restart(3)
	if err := c.ReplicateRepair(); err != nil {
		t.Fatalf("ReplicateRepair: %v", err)
	}
	checkReplicaConsistency(t, c)
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialErrorDetail asserts the RF=1 degraded read error carries the
// down nodes and unreachable slot count.
func TestPartialErrorDetail(t *testing.T) {
	c := newTPCR(t, 4, 4, 2, 0)
	if err := c.MarkNodeDown(2); err != nil {
		t.Fatal(err)
	}
	_, err := c.TableRows("orders")
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("TableRows degraded: %v, want ErrPartial", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	if len(pe.Down) != 1 || pe.Down[0] != 2 {
		t.Fatalf("PartialError.Down = %v, want [2]", pe.Down)
	}
	if pe.Slots == 0 {
		t.Fatal("PartialError.Slots = 0, want > 0")
	}
	if pe.Frag != "orders" {
		t.Fatalf("PartialError.Frag = %q, want orders", pe.Frag)
	}
}

// TestTopologyReplicationFields checks the observability surface: replica
// sets, node statuses and repair progress appear in Topology.
func TestTopologyReplicationFields(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3})
	c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 2}, 4, 1, 0)
	top := c.Topology()
	if top.ReplicationFactor != 2 {
		t.Fatalf("ReplicationFactor = %d, want 2", top.ReplicationFactor)
	}
	if len(top.Replicas) != len(top.SlotOwner) {
		t.Fatalf("Replicas has %d slots, SlotOwner %d", len(top.Replicas), len(top.SlotOwner))
	}
	for n, st := range top.NodeStatus {
		if st != "up" {
			t.Fatalf("node %d status %q, want up", n, st)
		}
	}
	inj.Crash(1)
	// Insert a row whose slot node 1 owns, so the statement notices the
	// crash and fails over (a write elsewhere would not touch node 1).
	m := c.Catalog().Partitioner().Map()
	key := int64(900)
	for m.Owner[m.Slot(types.Int(key))] != 1 {
		key++
	}
	if err := c.Insert("orders", []types.Tuple{ord(key, 0, 1.0)}); err != nil {
		t.Fatalf("insert after crash: %v", err)
	}
	top = c.Topology()
	if top.NodeStatus[1] != "failed-over" {
		t.Fatalf("node 1 status %q, want failed-over", top.NodeStatus[1])
	}
	for s, o := range top.SlotOwner {
		if o == 1 {
			t.Fatalf("slot %d still owned by failed-over node 1", s)
		}
	}
	inj.Restart(1)
	if err := c.ReplicateRepair(); err != nil {
		t.Fatal(err)
	}
	top = c.Topology()
	if top.NodeStatus[1] != "up" {
		t.Fatalf("node 1 status %q after repair, want up", top.NodeStatus[1])
	}
	if ms := c.Metrics().Repl; ms.Repairs != 1 || ms.RepairedSlots == 0 {
		t.Fatalf("Repl metrics = %+v, want one repair with repaired slots", ms)
	}
}

// TestRecoverWithReportReplicated: at RF=2 a crashed node's slots are
// promoted away by the first statement that notices, so bringing the node
// back must be a re-replication round whichever entry point the caller
// uses. RecoverWithReport used to replay the node's own log instead,
// resurrecting primaries that had moved on and leaving the auxiliary
// relations out of step with their base tables.
func TestRecoverWithReportReplicated(t *testing.T) {
	for _, strat := range allStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Durability: true, RetryAttempts: 3}, 6, 2, 0)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 8; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(600+i, i%6, 1.0)}); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := c.CrashNode(1); err != nil {
				t.Fatal(err)
			}
			// Failover: the survivors commit DML on the promoted slots.
			for i := int64(0); i < 8; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(700+i, i%6, 2.0)}); err != nil {
					t.Fatalf("insert %d after crash: %v", i, err)
				}
			}
			if _, err := c.Delete("orders", eqOrderKey(601)); err != nil {
				t.Fatalf("delete after crash: %v", err)
			}
			rep, err := c.RecoverWithReport(1)
			if err != nil {
				t.Fatalf("RecoverWithReport: %v", err)
			}
			if rep.Node != 1 || rep.Mode != "rereplicate" || rep.Messages <= 0 {
				t.Fatalf("report = %+v, want node 1 restored by re-replication with its traffic counted", rep)
			}
			if d := c.Degraded(); len(d) != 0 {
				t.Fatalf("still degraded after recovery: %v", d)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			checkReplicaConsistency(t, c)
		})
	}
}

// TestEmptyRespForMatchesLiveNode: the response a failed-over node is
// answered with has the type a live node gives, for every request that is
// neither mutating nor transaction or recovery control. A new read request
// type fails here until it gets a case below.
func TestEmptyRespForMatchesLiveNode(t *testing.T) {
	n := node.New(0, 10)
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	for _, req := range []any{
		node.CreateFragment{Name: "f", Schema: schema, PageRows: 4},
		node.CreateGlobalIndex{Name: "g"},
		node.Insert{Frag: "f", Tuples: []types.Tuple{{types.Int(1)}, {types.Int(2)}}},
	} {
		if _, err := n.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	one := []types.Tuple{{types.Int(1)}}
	reads := []any{
		node.Ping{},
		node.Scan{Frag: "f"},
		node.Scan{Frag: "f", Unmetered: true},
		node.Scan{Frag: "f", Pred: expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "k"}, R: expr.Const{V: types.Int(1)}}},
		node.LocateMatch{Frag: "f", HintCol: "k", Tuples: one},
		node.Probe{Frag: "f", FragCol: "k", Delta: one, Algo: node.AlgoIndex},
		node.FetchJoin{Frag: "f", FragCol: "k", Delta: one[0]},
		node.GILookup{GI: "g", Val: types.Int(1)},
		node.GIScan{GI: "g"},
		node.FragInfo{Frag: "f"},
		node.FragInfo{Frag: "g", GI: true},
	}
	control := map[string]bool{
		"node.Seq": true, "node.SeqQuery": true, "node.Prepare": true, "node.Decide": true,
		"node.ResolveAbort": true, "node.InDoubtReq": true, "node.CheckpointReq": true,
		"node.CrashReq": true, "node.RestartReq": true,
	}
	covered := map[string]bool{}
	for _, req := range reads {
		covered[fmt.Sprintf("%T", req)] = true
		live, err := n.Handle(req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got := emptyRespFor(req); fmt.Sprintf("%T", got) != fmt.Sprintf("%T", live) {
			t.Errorf("%+v: emptyRespFor gives %T, a live node %T", req, got, live)
		}
	}
	for _, req := range node.AllRequests() {
		name := fmt.Sprintf("%T", req)
		if !node.IsMutating(req) && !control[name] && !covered[name] {
			t.Errorf("read request %s has no case here", name)
		}
	}
}

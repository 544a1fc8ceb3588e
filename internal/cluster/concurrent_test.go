package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// newSessionSchemas builds a channel-link cluster with k independent
// schemas for k sessions.
func newSessionSchemas(t *testing.T, nodes, k int, strategy catalog.Strategy) *Cluster {
	t.Helper()
	return newSessionSchemasOn(t, Config{Nodes: nodes, UseChannels: true}, k, strategy)
}

// newSessionSchemasOn builds a cluster with k independent two-relation
// schemas a<i> ⋈ b<i> = jv<i>, each b<i> pre-loaded (3 rows per join value
// 0..15), so k sessions can run statements with disjoint lock claims.
func newSessionSchemasOn(t *testing.T, cfg Config, k int, strategy catalog.Strategy) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < k; i++ {
		an, bn, vn := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("jv%d", i)
		if err := c.CreateTable(&catalog.Table{
			Name: an,
			Schema: types.NewSchema(
				types.Column{Name: "id", Kind: types.KindInt},
				types.Column{Name: "c", Kind: types.KindInt},
			),
			PartitionCol: "id",
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateTable(&catalog.Table{
			Name: bn,
			Schema: types.NewSchema(
				types.Column{Name: "id", Kind: types.KindInt},
				types.Column{Name: "d", Kind: types.KindInt},
			),
			PartitionCol: "id",
			Indexes:      []catalog.Index{{Name: "ix_" + bn + "_d", Col: "d"}},
		}); err != nil {
			t.Fatal(err)
		}
		var rows []types.Tuple
		for v := int64(0); v < 16; v++ {
			for f := int64(0); f < 3; f++ {
				rows = append(rows, types.Tuple{types.Int(v*3 + f), types.Int(v)})
			}
		}
		if err := c.Insert(bn, rows); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateView(&catalog.View{
			Name:   vn,
			Tables: []string{an, bn},
			Joins:  []catalog.JoinPred{{Left: an, LeftCol: "c", Right: bn, RightCol: "d"}},
			Out: []catalog.OutCol{
				{Table: an, Col: "id"}, {Table: an, Col: "c"}, {Table: bn, Col: "id"},
			},
			PartitionTable: an, PartitionCol: "id",
			Strategy: strategy,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestConcurrentSessionsConsistency drives k concurrent sessions of mixed
// Insert/Update/Delete statements on independent schemas through the lock
// manager with parallel scatter-gather dispatch, then verifies every
// derived structure (auxiliary relations, global indexes, views). Run with
// -race to check the dispatcher and lock manager for data races.
func TestConcurrentSessionsConsistency(t *testing.T) {
	const sessions, stmts = 4, 12
	for _, strategy := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyGlobalIndex, catalog.StrategyAuto} {
		t.Run(strategy.String(), func(t *testing.T) {
			c := newSessionSchemas(t, 4, sessions, strategy)
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					table := fmt.Sprintf("a%d", s)
					for j := 0; j < stmts; j++ {
						base := int64(1000*(s+1) + 100*j)
						batch := []types.Tuple{
							{types.Int(base), types.Int(int64(j % 16))},
							{types.Int(base + 1), types.Int(int64((j + 5) % 16))},
						}
						if err := c.Insert(table, batch); err != nil {
							errs[s] = err
							return
						}
						if _, err := c.Update(table,
							map[string]types.Value{"c": types.Int(int64((j + 9) % 16))},
							expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(base)}}); err != nil {
							errs[s] = err
							return
						}
						if j%3 == 2 {
							if _, err := c.Delete(table, expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(base + 1)}}); err != nil {
								errs[s] = err
								return
							}
						}
					}
				}(s)
			}
			wg.Wait()
			for s, err := range errs {
				if err != nil {
					t.Fatalf("session %d: %v", s, err)
				}
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < sessions; s++ {
				if err := c.CheckViewConsistency(fmt.Sprintf("jv%d", s)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestUpdateEmptyVictimScan pins the regression the statement-scoped
// victim scan fixed: an Update (or Delete) whose predicate matches nothing
// must behave as an empty statement — same metered cost as the equivalent
// empty Delete, no residual transaction state — rather than running its
// scan outside the statement scope.
func TestUpdateEmptyVictimScan(t *testing.T) {
	c := newSessionSchemas(t, 4, 1, catalog.StrategyAuxRel)
	if err := c.Insert("a0", []types.Tuple{{types.Int(1), types.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	none := expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(99999)}}

	before := c.Metrics()
	n, err := c.Update("a0", map[string]types.Value{"c": types.Int(3)}, none)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty update affected %d rows", n)
	}
	updCost := c.Metrics().Sub(before)

	before = c.Metrics()
	gone, err := c.Delete("a0", none)
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Fatalf("empty delete removed %d rows", len(gone))
	}
	delCost := c.Metrics().Sub(before)

	if updCost.TotalIOs() != delCost.TotalIOs() || updCost.Net.Messages != delCost.Net.Messages {
		t.Errorf("empty update cost (ios=%d msgs=%d) != empty delete cost (ios=%d msgs=%d)",
			updCost.TotalIOs(), updCost.Net.Messages, delCost.TotalIOs(), delCost.Net.Messages)
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesAndDML runs read queries against one schema while
// another schema takes writes: shared claims must let the query run and
// the cluster-wide temp-fragment counter must keep concurrent QueryJoin
// intermediates from colliding.
func TestConcurrentQueriesAndDML(t *testing.T) {
	c := newSessionSchemas(t, 4, 2, catalog.StrategyAuxRel)
	if err := c.Insert("a0", []types.Tuple{{types.Int(500), types.Int(1)}, {types.Int(501), types.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Tables: []string{"a0", "b0"},
		Joins:  []catalog.JoinPred{{Left: "a0", LeftCol: "c", Right: "b0", RightCol: "d"}},
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := c.QueryJoin(spec); err != nil {
					errs[q] = err
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 12; j++ {
			if err := c.Insert("a1", []types.Tuple{{types.Int(int64(700 + j)), types.Int(int64(j % 16))}}); err != nil {
				errs[2] = err
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// TestEverythingOn is the one configuration with every feature on at once:
// loopback TCP, durability with automatic checkpoints, two-way replication
// and — in the async cell — deferred maintenance with a background flusher,
// under two sessions writing disjoint tables and a reader, through three
// CrashNode/Recover rounds (each a failover, a log replay with in-doubt
// resolution and a re-replication beside the running sessions). Statements
// overlap here exactly as they do without durability. Afterwards every
// structure, view and replica must check out, the acknowledged statements
// — and only those — must be present, whole, and the logs must be sound:
// each node's retained LSNs strictly increasing, at most one decision per
// transaction per node, and one coordinator commit record per decision (in
// the sync cell, per acknowledged statement). Run with -race.
func TestEverythingOn(t *testing.T) {
	const group = 4
	for _, async := range []bool{true, false} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			c := newSessionSchemasOn(t, Config{
				Nodes: 4, UseTCP: true, Durability: true, CheckpointEvery: 64, ReplicationFactor: 2,
				AsyncMaintenance: async, EpochSize: 4, RetryAttempts: 3,
			}, 2, catalog.StrategyAuxRel)
			noErr(t, c.Flush())
			setupDecisions := len(c.Decisions())

			// wholeStmts checks ids — laid out (session*100_000+stmt)*16+seq —
			// show every statement entirely (per rows each) or not at all.
			wholeStmts := func(rows []types.Tuple, per int) (map[int64]bool, error) {
				seen := map[int64]int{}
				for _, r := range rows {
					seen[r[0].I/16]++
				}
				stmts := map[int64]bool{}
				for s, n := range seen {
					if n != per {
						return nil, fmt.Errorf("statement %d: %d of %d rows visible (torn statement)", s, n, per)
					}
					stmts[s] = true
				}
				return stmts, nil
			}

			// The sessions run one statement per work token, so the test — not
			// the machine's speed — decides how much data the rounds move.
			var crashed atomic.Bool // a node is between CrashNode and Recover
			stop := make(chan struct{})
			work := make(chan struct{})
			done := make(chan struct{}, 2) // one slot per session: reporting never blocks, even after a failed round
			acked := make([]map[int64]bool, 2)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			quiesce := sync.OnceFunc(func() { close(stop); close(work); wg.Wait() })
			defer quiesce() // also on a failed round: the goroutines must not outlive the test
			for s := range acked {
				acked[s] = map[int64]bool{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					table := fmt.Sprintf("a%d", s)
					j := int64(0)
					for range work {
						stmt := int64(s)*100_000 + j
						batch := make([]types.Tuple, group)
						for g := range batch {
							batch[g] = types.Tuple{types.Int(stmt*16 + int64(g)), types.Int((j + int64(g)) % 16)}
						}
						j++
						during := crashed.Load()
						if err := c.Insert(table, batch); err == nil {
							acked[s][stmt] = true
						} else if !during && !crashed.Load() {
							// Refused with every node up. (Refused while one was
							// down is fine — and must stay invisible.)
							errs[s] = fmt.Errorf("session %d statement %d: %w", s, j, err)
						}
						done <- struct{}{}
					}
				}()
			}
			reads := 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					during := crashed.Load()
					rows, err := c.ViewRows("jv0")
					if err == nil {
						_, err = wholeStmts(rows, group*3)
					} else if during || crashed.Load() {
						continue
					}
					if err != nil {
						errs[2] = fmt.Errorf("reader: %w", err)
						return
					}
					reads++
				}
			}()
			// issue hands out n statements and waits for them.
			issue := func(n int) {
				t.Helper()
				timeout := time.After(30 * time.Second)
				for sent, finished := 0, 0; finished < n; {
					tokens := work
					if sent == n {
						tokens = nil
					}
					select {
					case tokens <- struct{}{}:
						sent++
					case <-done:
						finished++
					case <-timeout:
						t.Fatalf("sessions stalled: %v", errs)
					}
				}
			}
			for round, victim := range []int{1, 2, 3} {
				issue(12)
				crashed.Store(true)
				if err := c.CrashNode(victim); err != nil {
					t.Fatalf("round %d: crash node %d: %v", round, victim, err)
				}
				issue(12) // the sessions keep committing around the dead node
				recovered := make(chan error, 1)
				go func() { recovered <- c.Recover(victim) }()
				issue(12) // and beside its replay and re-replication
				if err := <-recovered; err != nil {
					t.Fatalf("round %d: recover node %d: %v", round, victim, err)
				}
				crashed.Store(false)
			}
			issue(12)
			quiesce()
			for _, err := range errs {
				noErr(t, err)
			}
			if reads == 0 {
				t.Fatal("the reader never completed a read")
			}
			noErr(t, c.Flush())
			if d := c.Degraded(); len(d) != 0 {
				t.Fatalf("still degraded: %v", d)
			}

			noErr(t, c.CheckAllStructures())
			checkReplicaConsistency(t, c)
			assertNoInDoubt(t, c)
			ackedTotal := 0
			for s := range acked {
				noErr(t, c.CheckViewConsistency(fmt.Sprintf("jv%d", s)))
				rows, err := c.TableRows(fmt.Sprintf("a%d", s))
				noErr(t, err)
				present, err := wholeStmts(rows, group)
				noErr(t, err)
				for stmt := range acked[s] {
					if !present[stmt] {
						t.Errorf("session %d: acknowledged statement %d lost", s, stmt)
					}
				}
				for stmt := range present {
					if !acked[s][stmt] {
						t.Errorf("session %d: refused statement %d is visible", s, stmt)
					}
				}
				ackedTotal += len(acked[s])
			}

			for n, dn := range c.allNodes() {
				var last uint64
				decisions := map[uint64]int{}
				for _, rec := range dn.RetainedLog() {
					if rec.LSN <= last {
						t.Fatalf("node %d: LSN %d follows %d", n, rec.LSN, last)
					}
					last = rec.LSN
					if rec.Kind == wal.KindCommit || rec.Kind == wal.KindAbort {
						decisions[rec.TID]++
					}
				}
				for tid, k := range decisions {
					if k > 1 {
						t.Errorf("node %d: transaction %d has %d decision records", n, tid, k)
					}
				}
			}
			commits := map[uint64]bool{}
			for _, rec := range c.coordLog.All() {
				if rec.Kind == wal.KindCommit {
					if commits[rec.TID] {
						t.Errorf("coordinator committed transaction %d twice", rec.TID)
					}
					commits[rec.TID] = true
				}
			}
			if got := len(c.Decisions()); got != len(commits) {
				t.Errorf("%d decisions for %d coordinator commit records", got, len(commits))
			}
			if !async {
				if got := len(c.Decisions()) - setupDecisions; got != ackedTotal {
					t.Errorf("%d decisions for %d acknowledged statements", got, ackedTotal)
				}
			}
		})
	}
}

// TestCatalogReadsBesideDDL runs every exported read that consults the
// catalog — the explain and advisor surfaces, view and table reads, the
// storage report, the structure checks, the topology — and an insert beside
// a CREATE VIEW … USING AUTO / DROP VIEW loop on the channel link. Reads
// take the published catalog snapshot, which no DDL mutates, so under -race
// none may be reported against the catalog's builders; and a read of the
// churned view may fail only with its not-found error, never return a
// partial result.
func TestCatalogReadsBesideDDL(t *testing.T) {
	c, err := New(Config{Nodes: 2, UseChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable()} {
		noErr(t, c.CreateTable(tab))
	}
	noErr(t, c.Insert("customer", []types.Tuple{cust(1, 1), cust(2, 2)}))
	noErr(t, c.Insert("orders", []types.Tuple{ord(10, 1, 5), ord(11, 2, 6)}))
	noErr(t, c.CreateView(jv1Def("jv", catalog.StrategyAuxRel)))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 30; i++ {
			if err := c.CreateView(jv1Def("churn", catalog.StrategyAuto)); err != nil {
				t.Error(err)
				return
			}
			if err := c.DropView("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// churnGone forgives the churned view's not-found error.
	churnGone := func(err error) error {
		if err != nil && strings.Contains(err.Error(), `no view "churn"`) {
			return nil
		}
		return err
	}
	var key atomic.Int64
	key.Store(1_000)
	for _, read := range []func() error{
		func() error { _, err := c.ExplainMaintenance("jv", "customer"); return err },
		func() error { _, err := c.ExplainPipeline("orders", "insert"); return err },
		func() error { _, err := c.AdviseMaterialization(); return err },
		func() error { _, err := c.ViewRows("jv"); return err },
		func() error { _, _ = c.ViewRows("churn"); return nil }, // exists or not, atomically
		func() error { _, err := c.TableRows("orders"); return err },
		func() error { _, err := c.StorageReport(); return err },
		func() error { return churnGone(c.CheckAllStructures()) },
		func() error { _ = c.Topology(); return nil },
		func() error { return c.Insert("orders", []types.Tuple{ord(key.Add(1), 1, 1)}) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	noErr(t, c.CheckAllStructures())
}

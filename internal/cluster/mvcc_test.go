package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// newMVCCCluster builds one shared schema a ⋈ b = jv: b pre-loaded with 3 rows per join value 0..15, so every
// inserted a-row yields exactly 3 view rows.
func newMVCCCluster(t *testing.T, cfg Config, strategy catalog.Strategy) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable(&catalog.Table{
		Name: "a",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "c", Kind: types.KindInt},
		),
		PartitionCol: "id",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(&catalog.Table{
		Name: "b",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "d", Kind: types.KindInt},
		),
		PartitionCol: "id",
		Indexes:      []catalog.Index{{Name: "ix_b_d", Col: "d"}},
	}); err != nil {
		t.Fatal(err)
	}
	var rows []types.Tuple
	for v := int64(0); v < 16; v++ {
		for f := int64(0); f < 3; f++ {
			rows = append(rows, types.Tuple{types.Int(v*3 + f), types.Int(v)})
		}
	}
	if err := c.Insert("b", rows); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&catalog.View{
		Name:   "jv",
		Tables: []string{"a", "b"},
		Joins:  []catalog.JoinPred{{Left: "a", LeftCol: "c", Right: "b", RightCol: "d"}},
		Out: []catalog.OutCol{
			{Table: "a", Col: "id"}, {Table: "a", Col: "c"}, {Table: "b", Col: "id"},
		},
		PartitionTable: "a", PartitionCol: "id",
		Strategy: strategy,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// readLinks enumerates the three links; statements overlap on the last two.
var readLinks = []struct {
	name string
	cfg  Config
}{
	{"direct", Config{Nodes: 4}},
	{"chan", Config{Nodes: 4, UseChannels: true}},
	{"tcp", Config{Nodes: 4, UseTCP: true}},
}

// TestSnapshotReadsDoNotBlockBehindWriters pins the MVCC contract
// directly: a statement holding exclusive claims on the table and the view
// (exactly what a mid-flight writer holds) must not delay snapshot reads
// at all — with or without durability, which has no say in which
// concurrency control runs. Under LockedReads the same reads would queue
// behind the claims until release.
func TestSnapshotReadsDoNotBlockBehindWriters(t *testing.T) {
	for name, cfg := range map[string]Config{
		"chan":         {Nodes: 4, UseChannels: true},
		"tcp":          {Nodes: 4, UseTCP: true},
		"chan-durable": {Nodes: 4, UseChannels: true, Durability: true},
	} {
		t.Run(name, func(t *testing.T) {
			c := newMVCCCluster(t, cfg, catalog.StrategyAuxRel)
			if err := c.Insert("a", []types.Tuple{{types.Int(1), types.Int(2)}}); err != nil {
				t.Fatal(err)
			}
			if !c.mvccOn() {
				t.Fatal("MVCC should be on for a concurrent transport")
			}
			// Simulate a writer parked mid-statement: exclusive claims on
			// the table, the view, shared on the view's other base.
			h := c.lockStmt("a")
			done := make(chan error, 1)
			go func() {
				rows, err := c.TableRows("a")
				if err == nil && len(rows) != 1 {
					err = fmt.Errorf("snapshot table read got %d rows, want 1", len(rows))
				}
				if err == nil {
					var view []types.Tuple
					view, err = c.ViewRows("jv")
					if err == nil && len(view) != 3 {
						err = fmt.Errorf("snapshot view read got %d rows, want 3", len(view))
					}
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("snapshot read blocked behind a writer's claims")
			}
			h.Release()
		})
	}
}

// decodeStmtRow splits a test id laid out as writer*1_000_000 +
// stmt*1_000 + seq.
func decodeStmtRow(id int64) (writer, stmt int) {
	return int(id / 1_000_000), int(id % 1_000_000 / 1_000)
}

// checkStmtGroups verifies one observed snapshot: every writer's
// statements must appear atomically (0 or groupSize rows each) and in
// prefix order (a visible statement implies every earlier statement of the
// same writer is visible).
func checkStmtGroups(rows []types.Tuple, writers, stmts, groupSize int) error {
	seen := make([][]int, writers)
	for w := range seen {
		seen[w] = make([]int, stmts)
	}
	for _, r := range rows {
		w, s := decodeStmtRow(r[0].I)
		if w < 0 || w >= writers || s < 0 || s >= stmts {
			return fmt.Errorf("unexpected row id %d", r[0].I)
		}
		seen[w][s]++
	}
	for w := range seen {
		visible := true
		for s := 0; s < stmts; s++ {
			switch seen[w][s] {
			case groupSize:
				if !visible {
					return fmt.Errorf("writer %d: statement %d visible after an invisible earlier statement", w, s)
				}
			case 0:
				visible = false
			default:
				return fmt.Errorf("writer %d statement %d: %d of %d rows visible (torn statement)", w, s, seen[w][s], groupSize)
			}
		}
	}
	return nil
}

// readColumn is one configuration of the read table: what it adds to the
// link's Config, the maintenance strategy it runs, and whether it reads
// after a failover.
type readColumn struct {
	name       string
	with       func(*Config)
	strategy   catalog.Strategy
	failedOver bool
}

func readColumns() []readColumn {
	plain := func(*Config) {}
	return []readColumn{
		{name: "naive", with: plain, strategy: catalog.StrategyNaive},
		{name: "auxrel", with: plain, strategy: catalog.StrategyAuxRel},
		{name: "globalindex", with: plain, strategy: catalog.StrategyGlobalIndex},
		{name: "durable", with: func(c *Config) { c.Durability = true }, strategy: catalog.StrategyAuxRel},
		{name: "durable-rf2", with: func(c *Config) { c.Durability, c.ReplicationFactor = true, 2 },
			strategy: catalog.StrategyGlobalIndex},
		{name: "rf2-failedover", with: func(c *Config) { c.ReplicationFactor = 2 },
			strategy: catalog.StrategyAuxRel, failedOver: true},
		{name: "lockedreads", with: func(c *Config) { c.LockedReads = true }, strategy: catalog.StrategyNaive},
		{name: "injector", with: func(c *Config) { c.Faults = fault.New(fault.Config{Seed: 1}) },
			strategy: catalog.StrategyGlobalIndex},
	}
}

// TestSnapshotReadersVsWriters races continuous reads of every kind —
// TableRows, ViewRows, ScanFragmentMetered, ReadViewRows, RelationRows — against
// concurrent writers on one shared table, on every link, under every
// configuration that used to pick a different read path (durability,
// replication, a failed-over node, LockedReads, an installed but unarmed
// injector) and all three maintenance strategies. Whatever the read holds —
// a snapshot or a lock — every observed state of the base table and of the
// view must be a statement prefix: no torn statements, no out-of-order
// visibility. (The SQL SELECT kind is internal/sql's TestSelectSeesWholeStatements.)
// Run with -race.
func TestSnapshotReadersVsWriters(t *testing.T) {
	const writers, stmts, group = 3, 12, 8
	reads := []struct {
		name  string
		gsize int
		read  func(c *Cluster) ([]types.Tuple, error)
	}{
		{"TableRows", group, func(c *Cluster) ([]types.Tuple, error) { return c.TableRows("a") }},
		{"ViewRows", group * 3, func(c *Cluster) ([]types.Tuple, error) { return c.ViewRows("jv") }},
		{"ScanFragmentMetered", group * 3, func(c *Cluster) ([]types.Tuple, error) { return c.ScanFragmentMetered("jv") }},
		{"ReadViewRows", group * 3, func(c *Cluster) ([]types.Tuple, error) {
			rows, _, err := c.ReadViewRows("jv", ReadAtWatermark)
			return rows, err
		}},
		// What a SELECT over a and jv reads: both in one scope, so the view
		// is never ahead of or behind the table.
		{"RelationRows", group * 3, func(c *Cluster) ([]types.Tuple, error) {
			out, err := c.RelationRows("a", "jv")
			if err != nil {
				return nil, err
			}
			if len(out[1]) != 3*len(out[0]) {
				return nil, fmt.Errorf("a has %d rows beside %d view rows: read at different statement prefixes", len(out[0]), len(out[1]))
			}
			return out[1], nil
		}},
	}
	for _, link := range readLinks {
		for _, col := range readColumns() {
			t.Run(link.name+"/"+col.name, func(t *testing.T) {
				cfg := link.cfg
				col.with(&cfg)
				c := newMVCCCluster(t, cfg, col.strategy)
				if col.failedOver {
					noErr(t, c.MarkNodeDown(3))
					_, err := c.TableRows("a") // the first read heals
					noErr(t, err)
					if !c.replServesComplete() {
						t.Fatal("node 3 was not failed over")
					}
				}
				var writersDone atomic.Bool
				errs := make([]error, writers+len(reads))
				var wg, wwg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					wwg.Add(1)
					go func(w int) {
						defer wg.Done()
						defer wwg.Done()
						for s := 0; s < stmts; s++ {
							batch := make([]types.Tuple, group)
							for g := 0; g < group; g++ {
								id := int64(w)*1_000_000 + int64(s)*1_000 + int64(g)
								batch[g] = types.Tuple{types.Int(id), types.Int(int64((w + s + g) % 16))}
							}
							if err := c.Insert("a", batch); err != nil {
								errs[w] = err
								return
							}
						}
					}(w)
				}
				go func() {
					wwg.Wait()
					writersDone.Store(true)
				}()
				// One reader per read kind (each a-row joins exactly 3 b-rows).
				for r, rd := range reads {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := 0; !writersDone.Load() || n < 3; n++ {
							rows, err := rd.read(c)
							if err == nil {
								err = checkStmtGroups(rows, writers, stmts, rd.gsize)
							}
							if err != nil {
								errs[writers+r] = fmt.Errorf("%s: %w", rd.name, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("goroutine %d: %v", i, err)
					}
				}
				noErr(t, c.CheckViewConsistency("jv"))
				if col.failedOver {
					noErr(t, c.ReplicateRepair())
				}
				noErr(t, c.CheckAllStructures())
				if c.replOn() {
					checkReplicaConsistency(t, c)
				}
			})
		}
	}
}

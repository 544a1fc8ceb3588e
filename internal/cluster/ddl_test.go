package cluster

import (
	"fmt"
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// TestFailedDDLPublishesNothing fails CREATE VIEW and CREATE GLOBAL INDEX on
// an L = 2 cluster, durable and not: with node 1 known down before the DDL
// starts (k = 0), and with node 1 crashing after each delivery count k of
// the DDL's own work. A failed DDL must publish nothing and must drop the
// fragments and global indexes it already created, so that after recovery
// the catalog is the pre-DDL snapshot, inserts into orders succeed, the
// retried DDL succeeds and every structure checks out.
func TestFailedDDLPublishesNothing(t *testing.T) {
	ddls := []struct {
		name string
		run  func(c *Cluster) error
	}{
		{"create view", func(c *Cluster) error { return c.CreateView(jv1Def("jv", catalog.StrategyAuxRel)) }},
		{"create global index", func(c *Cluster) error {
			return c.CreateGlobalIndex(&catalog.GlobalIndex{Name: "gi_orders_custkey", Table: "orders", Col: "custkey"})
		}},
	}
	for _, ddl := range ddls {
		ddl := ddl
		sweepDDLCrashes(t, ddl.name, 1, nil, func(t *testing.T, c *Cluster, k int, recover func()) bool {
			before, shape := c.Catalog(), catalogShape(c.Catalog())
			if err := ddl.run(c); err == nil {
				if k == 0 {
					t.Fatal("DDL succeeded with node 1 down")
				}
				return false // k is past the DDL's last delivery to node 1
			}
			if c.Catalog() != before || catalogShape(c.Catalog()) != shape {
				t.Fatalf("k=%d: the failed DDL published a catalog: %s", k, catalogShape(c.Catalog()))
			}
			recover()
			if c.Catalog() != before || catalogShape(c.Catalog()) != shape {
				t.Fatalf("k=%d: recovery published a catalog: %s", k, catalogShape(c.Catalog()))
			}
			if err := c.Insert("orders", []types.Tuple{ord(13, 1, 8)}); err != nil {
				t.Fatalf("k=%d: insert after the failed DDL: %v", k, err)
			}
			if err := ddl.run(c); err != nil {
				t.Fatalf("k=%d: retried DDL: %v", k, err)
			}
			return true
		})
	}
}

// TestDropBesideCrashCompletesAtRecover runs DROP VIEW and DROP TABLE on the
// same crash sweep, unreplicated and at RF = 2. A drop publishes the catalog
// without the object before any fragment goes and delivers each fragment
// drop like a compensation, so it succeeds with node 1 down: the catalog
// loses the object at once, the down node gets its drops at Recover (at
// RF = 2 its shadows too, before the revived node is wiped), writes to the
// surviving tables keep working, and recreating the object finds no orphan
// fragment or shadow on any node.
func TestDropBesideCrashCompletesAtRecover(t *testing.T) {
	ddls := []struct {
		name    string
		setup   func(c *Cluster) error
		drop    func(c *Cluster) error
		write   func(c *Cluster) error // into a table the drop keeps
		recheck func(c *Cluster) error
	}{
		{
			name:  "drop view",
			setup: func(c *Cluster) error { return c.CreateView(jv1Def("jv", catalog.StrategyAuxRel)) },
			drop:  func(c *Cluster) error { return c.DropView("jv") },
			write: func(c *Cluster) error { return c.Insert("orders", []types.Tuple{ord(13, 1, 8)}) },
			recheck: func(c *Cluster) error {
				if err := c.CreateView(jv1Def("jv", catalog.StrategyAuxRel)); err != nil {
					return err
				}
				return c.DropView("jv")
			},
		},
		{
			name:  "drop table",
			setup: func(c *Cluster) error { return c.EnsureStructures(jv1Def("jv", catalog.StrategyAuto)) },
			drop:  func(c *Cluster) error { return c.DropTable("orders") },
			write: func(c *Cluster) error { return c.Insert("customer", []types.Tuple{cust(13, 8)}) },
			recheck: func(c *Cluster) error {
				if err := c.CreateTable(ordersTable()); err != nil {
					return err
				}
				return c.EnsureStructures(jv1Def("jv", catalog.StrategyAuto))
			},
		},
	}
	for _, rf := range []int{1, 2} {
		for _, ddl := range ddls {
			// The catalog the drop leaves, from a run without faults.
			ref, err := New(Config{Nodes: 2})
			noErr(t, err)
			noErr(t, seedDDLFixture(ref))
			noErr(t, ddl.setup(ref))
			noErr(t, ddl.drop(ref))
			want := catalogShape(ref.Catalog())
			ref.Close()
			name := fmt.Sprintf("%s/rf=%d", ddl.name, rf)
			sweepDDLCrashes(t, name, rf, ddl.setup, func(t *testing.T, c *Cluster, k int, recover func()) bool {
				if err := ddl.drop(c); err != nil {
					t.Fatalf("k=%d: drop beside a crash: %v", k, err)
				}
				crashed := len(c.Degraded()) > 0
				if got := catalogShape(c.Catalog()); got != want {
					t.Fatalf("k=%d: catalog after the drop = %s, want %s", k, got, want)
				}
				recover()
				if err := ddl.write(c); err != nil {
					t.Fatalf("k=%d: insert after the drop: %v", k, err)
				}
				if err := c.CheckAllStructures(); err != nil {
					t.Fatalf("k=%d: after the drop: %v", k, err)
				}
				evictions := c.Metrics().Repl.Evictions
				if err := ddl.recheck(c); err != nil {
					t.Fatalf("k=%d: recreating the dropped object: %v", k, err)
				}
				if c.Metrics().Repl.Evictions != evictions {
					t.Fatalf("k=%d: recreating the dropped object evicted a follower: a shadow outlived the drop", k)
				}
				return crashed
			})
		}
	}
}

// seedDDLFixture creates customer and orders with three rows each.
func seedDDLFixture(c *Cluster) error {
	for _, tab := range []*catalog.Table{customerTable(), ordersTable()} {
		if err := c.CreateTable(tab); err != nil {
			return err
		}
	}
	if err := c.Insert("customer", []types.Tuple{cust(1, 1), cust(2, 2), cust(3, 3)}); err != nil {
		return err
	}
	return c.Insert("orders", []types.Tuple{ord(10, 1, 5), ord(11, 2, 6), ord(12, 3, 7)})
}

// sweepDDLCrashes runs one DDL on fresh L = 2 clusters at replication
// factor rf, durable and not, over the seeded fixture plus setup: first with node 1 known down before
// the DDL starts (k = 0), then with node 1 crashing after each delivery
// count k. body runs the DDL and its checks, calling recover to restart and
// recover every node; it reports whether node 1 went down, and the sweep
// ends at the first k where it did not. A final CheckAllStructures runs on
// every cluster.
func sweepDDLCrashes(t *testing.T, name string, rf int, setup func(c *Cluster) error,
	body func(t *testing.T, c *Cluster, k int, recover func()) bool) {
	for _, durable := range []bool{false, true} {
		durable := durable
		t.Run(fmt.Sprintf("%s/durable=%v", name, durable), func(t *testing.T) {
			crashed := 0
			for k := 0; ; k++ {
				inj := fault.New(fault.Config{Seed: 1})
				c, err := New(Config{Nodes: 2, ReplicationFactor: rf, Durability: durable, Faults: inj, RetryAttempts: 2})
				noErr(t, err)
				noErr(t, seedDDLFixture(c))
				if setup != nil {
					noErr(t, setup(c))
				}
				if k == 0 {
					if durable {
						noErr(t, c.CrashNode(1))
					} else {
						inj.Crash(1)
						noErr(t, c.MarkNodeDown(1))
					}
				} else {
					inj.CrashAfter(1, k)
				}
				recover := func() {
					// At RF > 1 recovery is a re-replication round, which
					// restarts a durable node from its log itself.
					if durable && rf == 1 {
						recoverAllDurable(t, c, inj)
					} else {
						recoverAll(t, c, inj)
					}
				}
				if !body(t, c, k, recover) {
					c.Close()
					break
				}
				crashed++
				if err := c.CheckAllStructures(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				c.Close()
			}
			if crashed < 2 {
				t.Errorf("only %d crash points took node 1 down: the sweep never crashed mid-DDL", crashed)
			}
		})
	}
}

// catalogShape names every object of the catalog.
func catalogShape(cat *catalog.Catalog) string {
	var sb strings.Builder
	for _, tn := range cat.Tables() {
		fmt.Fprintf(&sb, "table %s;", tn)
		for _, ar := range cat.AuxRelsFor(tn) {
			fmt.Fprintf(&sb, " auxrel %s;", ar.Name)
		}
		for _, gi := range cat.GlobalIndexesFor(tn) {
			fmt.Fprintf(&sb, " globalindex %s;", gi.Name)
		}
	}
	for _, vn := range cat.Views() {
		fmt.Fprintf(&sb, " view %s;", vn)
	}
	return sb.String()
}

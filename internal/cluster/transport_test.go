package cluster

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The three links, as Config selects them.
var transportCfgs = []struct {
	name string
	cfg  Config
}{
	{"direct", Config{}},
	{"chan", Config{UseChannels: true}},
	{"tcp", Config{UseTCP: true}},
}

// TestEveryTransportCombinationAccepted: latency, timeout and fault
// injection are middleware over any link, so New takes every combination
// and each one carries a statement.
func TestEveryTransportCombinationAccepted(t *testing.T) {
	for _, tc := range transportCfgs {
		for mask := 0; mask < 8; mask++ {
			cfg := tc.cfg
			cfg.Nodes = 3
			name := tc.name
			if mask&1 != 0 {
				cfg.NetLatency, name = time.Microsecond, name+"+latency"
			}
			if mask&2 != 0 {
				cfg.CallTimeout, name = 30*time.Second, name+"+timeout"
			}
			if mask&4 != 0 {
				cfg.Faults, name = fault.New(fault.Config{Seed: 1}), name+"+faults"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.CreateTable(customerTable()); err != nil {
					t.Fatal(err)
				}
				if err := c.Insert("customer", []types.Tuple{cust(1, 1), cust(2, 2), cust(3, 3), cust(4, 4)}); err != nil {
					t.Fatal(err)
				}
				if rows, err := c.TableRows("customer"); err != nil || len(rows) != 4 {
					t.Fatalf("TableRows = %d rows, %v; want 4", len(rows), err)
				}
			})
		}
	}
	if _, err := New(Config{Nodes: 2, UseTCP: true, UseChannels: true}); err == nil {
		t.Error("UseTCP with UseChannels must be rejected")
	}
}

// TestCallTimeoutFailsStatementAndRollsBack: a node that stops answering
// makes the statement fail with a retryable timeout instead of hanging the
// coordinator, on every transport; the statement's work is rolled back —
// including whatever the hung node applies once it wakes up — so the view
// still equals the recomputed join.
func TestCallTimeoutFailsStatementAndRollsBack(t *testing.T) {
	for _, tc := range transportCfgs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const hung = 2
			var stuck atomic.Bool
			release := make(chan struct{})
			cfg := tc.cfg
			cfg.Nodes, cfg.CallTimeout, cfg.RetryAttempts = 4, 150*time.Millisecond, 2
			cl, err := newCluster(cfg, func(id int, h netsim.Handler) netsim.Handler {
				if id != hung {
					return h
				}
				return func(req any) (any, error) {
					if stuck.Load() {
						<-release
					}
					return h(req)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			c := loadChaosCluster(t, cl, catalog.StrategyAuxRel, 6, 2)
			before, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}

			stuck.Store(true)
			batch := make([]types.Tuple, 16) // wide enough to route to every node
			for i := range batch {
				batch[i] = ord(int64(1000+i), int64(i%6), 1)
			}
			start := time.Now()
			err = c.Insert("orders", batch)
			if !errors.Is(err, netsim.ErrTimeout) || !fault.IsTransient(err) {
				t.Fatalf("insert past a hung node = %v, want a retryable netsim.ErrTimeout", err)
			}
			if d := time.Since(start); d > 20*time.Second {
				t.Fatalf("statement took %v to give up", d)
			}
			stuck.Store(false)
			close(release)

			for _, n := range c.Degraded() {
				if err := c.Recover(n); err != nil {
					t.Fatalf("recover node %d: %v", n, err)
				}
			}
			after, err := c.TableRows("orders")
			if err != nil {
				t.Fatal(err)
			}
			assertBagEqual(t, "orders after the failed insert", after, before)
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatalf("view inconsistent after rollback: %v", err)
			}
			if err := c.CheckAllStructures(); err != nil {
				t.Fatalf("auxiliary structures inconsistent after rollback: %v", err)
			}
		})
	}
}

// TestNetLatencyLeavesLogicalCostsAlone: on the Direct transport latency
// only costs wall-clock — message counts and every node's page counters
// equal the latency-0 run's.
func TestNetLatencyLeavesLogicalCostsAlone(t *testing.T) {
	run := func(latency time.Duration) Metrics {
		cl, err := New(Config{Nodes: 4, NetLatency: latency})
		if err != nil {
			t.Fatal(err)
		}
		c := loadChaosCluster(t, cl, catalog.StrategyGlobalIndex, 6, 2)
		if err := c.Insert("orders", []types.Tuple{ord(900, 1, 1), ord(901, 2, 2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete("orders", eqOrderKey(900)); err != nil {
			t.Fatal(err)
		}
		return c.Metrics()
	}
	m0, m1 := run(0), run(time.Microsecond)
	if m0.Net != m1.Net {
		t.Errorf("Net = %+v under latency, %+v without", m1.Net, m0.Net)
	}
	if m0.Net.Messages == 0 {
		t.Error("workload sent no messages")
	}
	if !reflect.DeepEqual(m0.Node, m1.Node) {
		t.Errorf("page counters differ under latency:\n%+v\n%+v", m1.Node, m0.Node)
	}
}

// TestDropStagingAbsorbsOnlyMissingFragments: cleanup of a migration
// shadow that was never created is absorbed on every transport (the node's typed
// sentinel survives the wire); an unrelated node error whose text happens
// to say "not found" is not.
func TestDropStagingAbsorbsOnlyMissingFragments(t *testing.T) {
	for _, tc := range transportCfgs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Nodes = 2
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.CreateTable(customerTable()); err != nil {
				t.Fatal(err)
			}
			err = c.dropShadows([]int{0, 1}, []migShadow{{Name: "never"}, {Name: "never_gi", GI: true}})
			if err != nil {
				t.Fatalf("dropping never-created migration shadows = %v, want absorbed", err)
			}
			_, err = c.rawCall(0, node.DropFragment{Name: "never"})
			if !errors.Is(err, node.ErrNoFragment) {
				t.Fatalf("drop of a missing fragment = %v, want node.ErrNoFragment", err)
			}
			_, err = c.rawCall(0, node.Insert{Frag: "customer", Tuples: []types.Tuple{{types.Int(1)}}})
			if err == nil || errors.Is(err, node.ErrNoFragment) {
				t.Fatalf("insert of a wrong-arity tuple = %v (unknown fragment: %v), want a real failure", err, err != nil)
			}
		})
	}
}

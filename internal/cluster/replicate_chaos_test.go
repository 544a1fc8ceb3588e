package cluster

import (
	"fmt"
	"testing"

	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/types"
)

// TestReplicationChaosMatrix is the failover acceptance matrix: every view
// strategy, on both transports, losing a slot's primary or its follower,
// with the crash landing either inside a DML statement or inside an async
// flush. In every cell the statement stream sees ZERO errors — the first
// statement that notices the crash fails over internally and retries —
// reads stay complete (never ErrPartial), and after restart plus
// ReplicateRepair the replica invariant and the view definition both hold.
func TestReplicationChaosMatrix(t *testing.T) {
	transports := map[bool]string{false: "direct", true: "chan"}
	seed := int64(97)
	for _, strat := range allStrategies {
		for _, useChan := range []bool{false, true} {
			for _, role := range []string{"crash-primary", "crash-follower"} {
				for _, timing := range []string{"during-dml", "during-flush"} {
					strat, useChan, role, timing := strat, useChan, role, timing
					seed++
					cellSeed := seed
					name := fmt.Sprintf("%s/%s/%s/%s", strat, transports[useChan], role, timing)
					t.Run(name, func(t *testing.T) {
						inj := fault.New(fault.Config{Seed: cellSeed})
						cfg := Config{
							Nodes: 4, ReplicationFactor: 2, Faults: inj,
							RetryAttempts: 3, UseChannels: useChan, Durability: true,
						}
						async := timing == "during-flush"
						if async {
							cfg.AsyncMaintenance = true
						}
						c := newReplicatedTPCR(t, cfg, 6, 2, 0)
						if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
							t.Fatal(err)
						}
						m := c.Catalog().Partitioner().Map()
						victim := m.Owner[0]
						if role == "crash-follower" {
							victim = m.Repl[0][0]
						}

						live := 12 // seeded orders rows
						nextOK := int64(2000)
						dml := func(stage string, n int) {
							t.Helper()
							for i := 0; i < n; i++ {
								nextOK++
								if err := c.Insert("orders", []types.Tuple{ord(nextOK, nextOK%6, 1.0)}); err != nil {
									t.Fatalf("%s: insert %d: %v", stage, nextOK, err)
								}
								live++
							}
						}

						dml("healthy", 4)
						if async {
							// Land the crash inside the flush pipeline; the
							// flush itself must fail over and complete.
							inj.CrashAtPhase("flush", victim)
							if err := c.Flush(); err != nil {
								t.Fatalf("flush with crash: %v", err)
							}
						} else {
							// Land the crash a few deliveries into a statement.
							inj.CrashAfter(victim, 3)
							dml("crashing", 10)
							if _, err := c.Delete("orders", expr.Cmp{Op: expr.EQ,
								L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(2001)}}); err != nil {
								t.Fatalf("delete after crash: %v", err)
							}
							live--
						}
						if !inj.Down(victim) {
							t.Fatalf("victim %d never crashed", victim)
						}
						dml("degraded", 4)
						if async {
							if err := c.Flush(); err != nil {
								t.Fatalf("degraded flush: %v", err)
							}
						}

						// Reads stay complete under one lost node.
						rows, err := c.TableRows("orders")
						if err != nil {
							t.Fatalf("TableRows degraded: %v", err)
						}
						if len(rows) != live {
							t.Fatalf("TableRows = %d rows, want %d", len(rows), live)
						}
						if err := c.CheckViewConsistency("jv1"); err != nil {
							t.Fatalf("view consistency degraded: %v", err)
						}

						// Restart, re-replicate, verify full strength.
						inj.Restart(victim)
						if err := c.ReplicateRepair(); err != nil {
							t.Fatalf("ReplicateRepair: %v", err)
						}
						if d := c.Degraded(); len(d) != 0 {
							t.Fatalf("still degraded after repair: %v", d)
						}
						checkReplicaConsistency(t, c)
						if err := c.CheckViewConsistency("jv1"); err != nil {
							t.Fatalf("view consistency after repair: %v", err)
						}
						if err := c.CheckAllStructures(); err != nil {
							t.Fatalf("structures after repair: %v", err)
						}
						// The revived node serves writes again.
						dml("repaired", 3)
						if async {
							if err := c.Flush(); err != nil {
								t.Fatalf("repaired flush: %v", err)
							}
						}
						checkReplicaConsistency(t, c)
					})
				}
			}
		}
	}
}

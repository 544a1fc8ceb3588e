package experiments

import (
	"errors"
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/fault"
	"joinview/internal/node"
	"joinview/internal/types"
)

// Replication prices K-way synchronous fragment replication at each
// replication factor in ks on an l-node cluster, on the adaptive schema
// (a ⋈ b, advisor-chosen strategy): a healthy stream of statements
// four-row inserts (total workload, messages and the mirror traffic the
// replication layer adds; amplification is relative to the first K), then
// a slot owner crashes under statements/2 more inserts and one full-table
// read, then it restarts and is repaired (ReplicateRepair, Recover at
// K=1); factors above l are skipped. At K=1 every crash-window statement fails and the read is partial;
// at K>=2 the first statement to notice fails over internally and the
// stream sees zero errors. Every column is a logical count; what
// replication and failover cost in wall-clock is the benchmark's
// cluster.repl_tax and cluster.recover_ms (bench/, durable-rf2-chan).
func Replication(l, statements int, ks []int) (Grid, error) {
	g := Grid{
		Title: "Replication (extension): write amplification vs crash transparency",
		Header: []string{"L", "K", "stmts", "tw-ios", "msgs", "amp-ios", "amp-msgs", "mirrors", "mirrored tuples",
			"crash-ok", "crash-err", "complete read", "promoted", "repaired"},
	}
	var baseIOs, baseMsgs int64
	cell := func(k int) error {
		inj := fault.New(fault.Config{Seed: 11})
		c, err := newCluster(cluster.Config{
			Nodes: l, JoinAlgo: node.AlgoIndex, Faults: inj, RetryAttempts: 3, ReplicationFactor: k,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := loadAdaptive(c, catalog.StrategyAuto); err != nil {
			return err
		}
		nextID := int64(3_000_000)
		insert := func() error {
			rows := make([]types.Tuple, 4)
			for j := range rows {
				nextID++
				rows[j] = types.Tuple{types.Int(nextID), types.Int(nextID % adaptiveJoinValues), types.Int(nextID % 97)}
			}
			return c.Insert("a", rows)
		}
		for i := 0; i < statements; i++ {
			if err := insert(); err != nil {
				return err
			}
		}
		m := c.Metrics()
		if baseIOs == 0 {
			baseIOs, baseMsgs = m.TotalIOs(), m.Net.Messages
		}

		victim := c.Topology().SlotOwner[0]
		inj.Crash(victim)
		crashOK := 0
		for i := 0; i < statements/2; i++ {
			if insert() == nil {
				crashOK++
			}
		}
		_, readErr := c.TableRows("a")
		if readErr != nil && !errors.Is(readErr, cluster.ErrPartial) {
			return readErr
		}
		promoted := c.Metrics().Repl.PromotedSlots

		inj.Restart(victim)
		if k > 1 {
			err = c.ReplicateRepair()
		} else {
			err = c.Recover(victim)
		}
		if err != nil {
			return err
		}
		if err := c.CheckViewConsistency("jv"); err != nil {
			return fmt.Errorf("view inconsistent after repair: %w", err)
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), fmt.Sprint(k), fmt.Sprint(statements),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(m.Net.Messages),
			fmt.Sprintf("%.3f", float64(m.TotalIOs())/float64(baseIOs)),
			fmt.Sprintf("%.3f", float64(m.Net.Messages)/float64(baseMsgs)),
			fmt.Sprint(m.Repl.Mirrors), fmt.Sprint(m.Repl.MirroredTuples),
			fmt.Sprint(crashOK), fmt.Sprint(statements/2 - crashOK), fmt.Sprint(readErr == nil),
			fmt.Sprint(promoted), fmt.Sprint(c.Metrics().Repl.RepairedSlots),
		})
		return nil
	}
	for _, k := range ks {
		if k > l {
			continue
		}
		if err := cell(k); err != nil {
			return Grid{}, fmt.Errorf("L=%d K=%d: %w", l, k, err)
		}
	}
	return g, nil
}

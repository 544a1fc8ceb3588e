package experiments

import (
	"errors"
	"fmt"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/fault"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The replication experiment prices the availability extension: K-way
// synchronous fragment replication buys crash transparency at mirrored-
// write amplification. Each K in {1, 2, 3} runs the adaptive schema
// (a ⋈ b, advisor-chosen strategy) on the channel transport with the
// simulated interconnect:
//
//   - a healthy measured insert stream prices the write path — total
//     workload, interconnect messages, and the mirror deliveries the
//     replication layer adds (zero at K=1, the paper's model);
//   - one node is then crashed under continuing load. At K=1 every
//     statement and read touching the lost slots fails (ErrDegraded,
//     ErrPartial); at K>=2 the first statement to notice fails over
//     internally and the stream sees zero errors while reads stay
//     complete. The first post-crash read carries the failover (slot
//     promotion); the steady reads after it show the healed cost;
//   - the node restarts and ReplicateRepair (Recover at K=1) restores
//     full strength, priced as wall time and slot-replicas recopied.

// ReplicationResult is one replication factor's measurement.
type ReplicationResult struct {
	L int
	K int
	// Healthy measured stream.
	Statements int
	Tuples     int
	TWIOs      int64
	Messages   int64
	// MirrorDeliveries/MirroredTuples are the replication layer's own
	// write fan-out during the healthy stream.
	MirrorDeliveries int64
	MirroredTuples   int64
	// WriteAmpIOs and WriteAmpMsgs are this K's healthy-stream cost
	// relative to the K=1 baseline of the same run.
	WriteAmpIOs  float64
	WriteAmpMsgs float64
	// Crash window: statements issued with one node freshly crashed.
	CrashStmtOK  int
	CrashStmtErr int
	// CompleteReads reports whether a full-table read with the node down
	// returned every surviving row (never ErrPartial). FailoverReadMicros
	// prices the first read after the crash — at K>=2 it includes the slot
	// promotion; SteadyReadMicros is the mean of the eight reads after it.
	CompleteReads      bool
	FailoverReadMicros int64
	SteadyReadMicros   int64
	PromotedSlots      int64
	// Repair: wall time to restore full strength after the node restarts
	// (ReplicateRepair at K>=2, Recover at K=1) and the slot-replicas the
	// repair recopied.
	RepairMillis  int64
	RepairedSlots int64
}

// Replication runs the write-amplification / availability comparison at
// K = 1, 2, 3 on an l-node cluster, statements insert statements per
// healthy stream.
func Replication(l, statements int) ([]ReplicationResult, error) {
	var out []ReplicationResult
	var baseIOs, baseMsgs int64
	for _, k := range []int{1, 2, 3} {
		r, err := runReplication(l, k, statements)
		if err != nil {
			return nil, fmt.Errorf("L=%d K=%d: %w", l, k, err)
		}
		if k == 1 {
			baseIOs, baseMsgs = r.TWIOs, r.Messages
		}
		if baseIOs > 0 {
			r.WriteAmpIOs = float64(r.TWIOs) / float64(baseIOs)
		}
		if baseMsgs > 0 {
			r.WriteAmpMsgs = float64(r.Messages) / float64(baseMsgs)
		}
		out = append(out, r)
	}
	return out, nil
}

func runReplication(l, k, statements int) (ReplicationResult, error) {
	inj := fault.New(fault.Config{Seed: 11})
	c, err := newCluster(cluster.Config{
		Nodes: l, Algo: node.AlgoIndex, UseChannels: true,
		NetLatency: DefaultNetLatency,
		Faults:     inj, RetryAttempts: 3,
		ReplicationFactor: k,
	})
	if err != nil {
		return ReplicationResult{}, err
	}
	defer c.Close()
	if err := loadAdaptive(c, catalog.StrategyAuto); err != nil {
		return ReplicationResult{}, err
	}

	res := ReplicationResult{L: l, K: k, Statements: statements}
	nextID := int64(3_000_000)
	insert := func() error {
		rows := make([]types.Tuple, 4)
		for j := range rows {
			nextID++
			rows[j] = types.Tuple{
				types.Int(nextID),
				types.Int(nextID % adaptiveJoinValues),
				types.Int(nextID % 97),
			}
		}
		return c.Insert("a", rows)
	}

	// Healthy measured stream.
	c.ResetMetrics()
	for i := 0; i < statements; i++ {
		if err := insert(); err != nil {
			return res, err
		}
		res.Tuples += 4
	}
	m := c.Metrics()
	res.TWIOs = m.TotalIOs()
	res.Messages = m.Net.Messages
	res.MirrorDeliveries = m.Repl.Mirrors
	res.MirroredTuples = m.Repl.MirroredTuples

	// Crash one slot owner under continuing load.
	victim := c.Topology().SlotOwner[0]
	inj.Crash(victim)
	for i := 0; i < statements/2; i++ {
		if err := insert(); err != nil {
			res.CrashStmtErr++
		} else {
			res.CrashStmtOK++
		}
	}
	readOnce := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := c.TableRows("a")
		return time.Since(t0), err
	}
	d, rerr := readOnce()
	res.FailoverReadMicros = d.Microseconds()
	res.CompleteReads = rerr == nil
	if rerr != nil && !errors.Is(rerr, cluster.ErrPartial) {
		return res, rerr
	}
	var steady time.Duration
	for i := 0; i < 8; i++ {
		d, rerr := readOnce()
		if rerr != nil && !errors.Is(rerr, cluster.ErrPartial) {
			return res, rerr
		}
		steady += d
	}
	res.SteadyReadMicros = (steady / 8).Microseconds()
	res.PromotedSlots = c.Metrics().Repl.PromotedSlots

	// Restart and restore full strength.
	inj.Restart(victim)
	t0 := time.Now()
	if k > 1 {
		err = c.ReplicateRepair()
	} else {
		err = c.Recover(victim)
	}
	if err != nil {
		return res, err
	}
	res.RepairMillis = time.Since(t0).Milliseconds()
	res.RepairedSlots = c.Metrics().Repl.RepairedSlots
	if err := c.CheckViewConsistency("jv"); err != nil {
		return res, fmt.Errorf("view inconsistent after repair: %w", err)
	}
	return res, nil
}

// ReplicationGrid formats the results.
func ReplicationGrid(rs []ReplicationResult) Grid {
	g := Grid{
		Title: "Replication (extension): write amplification vs crash transparency",
		Header: []string{"L", "K", "stmts", "tw-ios", "msgs", "amp-ios", "amp-msgs",
			"mirrored", "crash-ok", "crash-err", "complete", "failover-read", "steady-read", "repair"},
	}
	for _, r := range rs {
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%d", r.Statements),
			fmt.Sprintf("%d", r.TWIOs),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.2f", r.WriteAmpIOs),
			fmt.Sprintf("%.2f", r.WriteAmpMsgs),
			fmt.Sprintf("%d", r.MirroredTuples),
			fmt.Sprintf("%d", r.CrashStmtOK),
			fmt.Sprintf("%d", r.CrashStmtErr),
			fmt.Sprintf("%t", r.CompleteReads),
			fmt.Sprintf("%dµs", r.FailoverReadMicros),
			fmt.Sprintf("%dµs", r.SteadyReadMicros),
			fmt.Sprintf("%dms", r.RepairMillis),
		})
	}
	return g
}

// ReplicationCost prices K-way synchronous fragment replication at each
// replication factor in ks on an l-node cluster: a healthy stream of
// statements four-row inserts (total workload, messages and the mirror
// traffic the replication layer adds; amplification is relative to the
// first K), then a slot owner crashes under statements/2 more inserts and
// one full-table read, then it restarts and is repaired (ReplicateRepair,
// Recover at K=1). At K=1 every crash-window statement fails and the read
// is partial; at K>=2 the first statement to notice fails over internally
// and the stream sees zero errors. Every column is a logical count; what
// replication and failover cost in wall-clock is the benchmark's
// cluster.repl_tax and cluster.recover_ms (bench/, workload
// durable-rf2-chan).
func ReplicationCost(l, statements int, ks []int) (Grid, error) {
	g := Grid{
		Title: "Replication (extension): write amplification vs crash transparency",
		Header: []string{"L", "K", "stmts", "tw-ios", "msgs", "amp-ios", "amp-msgs", "mirrors", "mirrored tuples",
			"crash-ok", "crash-err", "complete read", "promoted", "repaired"},
	}
	var baseIOs, baseMsgs int64
	for _, k := range ks {
		inj := fault.New(fault.Config{Seed: 11})
		c, err := newCluster(cluster.Config{
			Nodes: l, Algo: node.AlgoIndex, Faults: inj, RetryAttempts: 3, ReplicationFactor: k,
		})
		if err != nil {
			return Grid{}, err
		}
		defer c.Close()
		if err := loadAdaptive(c, catalog.StrategyAuto); err != nil {
			return Grid{}, err
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
				return Grid{}, fmt.Errorf("L=%d K=%d: %w", l, k, err)
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
		_, rerr := c.TableRows("a")
		if rerr != nil && !errors.Is(rerr, cluster.ErrPartial) {
			return Grid{}, rerr
		}
		promoted := c.Metrics().Repl.PromotedSlots

		inj.Restart(victim)
		if k > 1 {
			err = c.ReplicateRepair()
		} else {
			err = c.Recover(victim)
		}
		if err != nil {
			return Grid{}, err
		}
		if err := c.CheckViewConsistency("jv"); err != nil {
			return Grid{}, fmt.Errorf("K=%d: view inconsistent after repair: %w", k, err)
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), fmt.Sprint(k), fmt.Sprint(statements),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(m.Net.Messages),
			fmt.Sprintf("%.3f", float64(m.TotalIOs())/float64(baseIOs)),
			fmt.Sprintf("%.3f", float64(m.Net.Messages)/float64(baseMsgs)),
			fmt.Sprint(m.Repl.Mirrors), fmt.Sprint(m.Repl.MirroredTuples),
			fmt.Sprint(crashOK), fmt.Sprint(statements/2 - crashOK), fmt.Sprint(rerr == nil),
			fmt.Sprint(promoted), fmt.Sprint(c.Metrics().Repl.RepairedSlots),
		})
	}
	return g, nil
}

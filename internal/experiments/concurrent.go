package experiments

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The session schema: each session owns an independent two-relation schema
// (a_i ⋈ b_i = jv_i), so concurrent sessions claim disjoint locks. The
// parallel, elastic and hotpath grids and the root TestAllocBudget all
// drive it.

// ConcurrentStrategies are the maintenance methods those grids sweep.
func ConcurrentStrategies() []Variant {
	return []Variant{
		{Label: "auxiliary relation", Strategy: catalog.StrategyAuxRel},
		{Label: "naive", Strategy: catalog.StrategyNaive},
		{Label: "global index", Strategy: catalog.StrategyGlobalIndex},
	}
}

// Session-schema parameters: small enough that setup stays fast, large
// enough that every insert statement does real maintenance work (each
// join value matches sessionFanout B tuples).
const (
	sessionJoinValues = 64
	sessionFanout     = 4
)

// LoadSessionSchemas creates sessions independent two-relation schemas
// a_i(id,c,payload) ⋈ b_i(id,d,payload) = jv_i, each b_i pre-loaded.
func LoadSessionSchemas(c *cluster.Cluster, sessions int, strategy catalog.Strategy) error {
	for i := 0; i < sessions; i++ {
		if err := loadPair(c, fmt.Sprint(i), "id", sessionJoinValues, sessionFanout, strategy); err != nil {
			return err
		}
	}
	return nil
}

// intSchema is a schema of integer columns.
func intSchema(names ...string) *types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Kind: types.KindInt}
	}
	return types.NewSchema(cols...)
}

// loadPair creates the two-relation schema the extension experiments
// share: a<sfx>(id, c, payload) partitioned on aPart, b<sfx>(id, d,
// payload) partitioned on id with a secondary index on d and pre-loaded
// with fanout rows per join value, and jv<sfx> = a ⋈ b on c = d under the
// given strategy, partitioned on a.id.
func loadPair(c *cluster.Cluster, sfx, aPart string, joinValues, fanout int, strategy catalog.Strategy) error {
	an, bn := "a"+sfx, "b"+sfx
	if err := c.CreateTable(&catalog.Table{Name: an, Schema: intSchema("id", "c", "payload"), PartitionCol: aPart}); err != nil {
		return err
	}
	if err := c.CreateTable(&catalog.Table{
		Name: bn, Schema: intSchema("id", "d", "payload"), PartitionCol: "id",
		Indexes: []catalog.Index{{Name: "ix_" + bn + "_d", Col: "d"}},
	}); err != nil {
		return err
	}
	rows := make([]types.Tuple, 0, joinValues*fanout)
	for id := int64(1); id <= int64(joinValues*fanout); id++ {
		rows = append(rows, types.Tuple{types.Int(id), types.Int((id - 1) / int64(fanout)), types.Int(id % 97)})
	}
	if err := c.Insert(bn, rows); err != nil {
		return err
	}
	if err := c.RefreshStats(bn); err != nil {
		return err
	}
	return c.CreateView(&catalog.View{
		Name:   "jv" + sfx,
		Tables: []string{an, bn},
		Joins:  []catalog.JoinPred{{Left: an, LeftCol: "c", Right: bn, RightCol: "d"}},
		Out: []catalog.OutCol{
			{Table: an, Col: "id"}, {Table: an, Col: "c"},
			{Table: bn, Col: "id"}, {Table: bn, Col: "payload"},
		},
		PartitionTable: an, PartitionCol: "id",
		Strategy: strategy,
	})
}

// SessionInserts builds the rows statement j of session s inserts:
// cluster-unique ids, join values cycling through b's domain.
func SessionInserts(s, j, rows int) []types.Tuple {
	out := make([]types.Tuple, rows)
	base := int64(1_000_000*(s+1) + j*rows)
	for r := 0; r < rows; r++ {
		out[r] = types.Tuple{
			types.Int(base + int64(r)),
			types.Int(int64(j*rows+r) % sessionJoinValues),
			types.Int(int64(r)),
		}
	}
	return out
}

// sessionRound issues statement j of every session, one after the other.
func sessionRound(c *cluster.Cluster, sessions, j, rows int) error {
	for s := 0; s < sessions; s++ {
		if err := c.Insert(fmt.Sprintf("a%d", s), SessionInserts(s, j, rows)); err != nil {
			return err
		}
	}
	return nil
}

// ConcurrentSessions prices the concurrent-sessions workload in the
// paper's currency: per node count and method, one goroutine issues the
// statements of `sessions` sessions round-robin (stmts inserts of rows
// tuples each) and the grid reports total workload, busiest-node I/Os and
// messages. Statement order across disjoint schemas does not move a
// logical meter, so these are the numbers any interleaving of real
// sessions must reproduce — which the channel render of the golden, under
// parallel dispatch, checks. Statement throughput under real concurrency
// is the benchmark's cluster.session_scaling (bench/, bulk-scan-chan).
func ConcurrentSessions(ls []int, sessions, stmts, rows int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Concurrent sessions (extension): logical cost of %d sessions x %d statements x %d rows", sessions, stmts, rows),
		Header: []string{"L", "method", "stmts", "tw-ios", "ios/stmt", "maxnode-ios", "msgs", "msgs/stmt"},
	}
	cell := func(l int, v Variant) error {
		c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := LoadSessionSchemas(c, sessions, v.Strategy); err != nil {
			return err
		}
		c.ResetMetrics()
		for j := 0; j < stmts; j++ {
			if err := sessionRound(c, sessions, j, rows); err != nil {
				return err
			}
		}
		m := c.Metrics()
		total := float64(sessions * stmts)
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), v.Label, fmt.Sprint(sessions * stmts),
			fmt.Sprint(m.TotalIOs()), fmt.Sprintf("%.1f", float64(m.TotalIOs())/total),
			fmt.Sprint(m.MaxNodeIOs()),
			fmt.Sprint(m.Net.Messages), fmt.Sprintf("%.1f", float64(m.Net.Messages)/total),
		})
		return nil
	}
	for _, l := range ls {
		for _, v := range ConcurrentStrategies() {
			if err := cell(l, v); err != nil {
				return Grid{}, fmt.Errorf("L=%d %s: %w", l, v.Label, err)
			}
		}
	}
	return g, nil
}

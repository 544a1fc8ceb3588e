package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/node"
	"joinview/internal/stats"
	"joinview/internal/types"
)

// The concurrent-sessions experiment measures what the table-level lock
// manager and the scatter-gather dispatcher buy once several sessions
// issue statements at once. Each session owns an independent schema
// (a_i ⋈ b_i = jv_i), so its statements claim disjoint locks; the serial
// baseline (Config.SerialDML) still funnels every statement through the
// global lock, which is exactly the seed's execution model.

// ConcurrentResult is one row of the experiment: one (L, strategy) cell
// measured under both execution models.
type ConcurrentResult struct {
	L        int
	Sessions int
	Strategy string
	// SerialStmtsPerSec and ParallelStmtsPerSec are whole-cluster
	// statement throughputs with SerialDML on and off.
	SerialStmtsPerSec   float64
	ParallelStmtsPerSec float64
	Speedup             float64
	// MsgsPerStmt and AllocsPerStmt are per-statement logical messages
	// and heap allocations of the parallel run.
	MsgsPerStmt   float64
	AllocsPerStmt float64
	// Plan-cache counters of the parallel run: with per-session tables and
	// no DDL, every statement after each table's first compilation should
	// reuse the cached maintenance pipeline.
	PlanCacheHits    int64
	PlanCacheMisses  int64
	PlanCacheHitRate float64
	// Stages is the per-stage page/message breakdown of the serial run,
	// where one-statement-at-a-time dispatch attributes I/O to pipeline
	// stages exactly.
	Stages map[string]stats.StageCounters
}

// ConcurrentStrategies are the maintenance methods the experiment sweeps.
func ConcurrentStrategies() []struct {
	Label    string
	Strategy catalog.Strategy
} {
	return []struct {
		Label    string
		Strategy catalog.Strategy
	}{
		{"auxiliary relation", catalog.StrategyAuxRel},
		{"naive", catalog.StrategyNaive},
		{"global index", catalog.StrategyGlobalIndex},
	}
}

// DefaultNetLatency is the simulated interconnect latency the experiment
// runs under: the paper's setting is a network-bound parallel RDBMS, so
// statement latency is dominated by message round-trips, which is what
// the scatter-gather dispatcher overlaps. 50µs is a conservative
// datacenter RTT.
const DefaultNetLatency = 50 * time.Microsecond

// ConcurrentSessions runs the experiment over the node counts in ls:
// sessions goroutines, each issuing stmtsPerSession inserts of
// rowsPerStmt tuples into its own base table, under the serial and the
// parallel execution model in turn.
func ConcurrentSessions(ls []int, sessions, stmtsPerSession, rowsPerStmt int, latency time.Duration) ([]ConcurrentResult, error) {
	var out []ConcurrentResult
	for _, l := range ls {
		for _, st := range ConcurrentStrategies() {
			serial, _, _, serialPipe, err := runConcurrent(l, sessions, stmtsPerSession, rowsPerStmt, st.Strategy, latency, true)
			if err != nil {
				return nil, fmt.Errorf("L=%d %s serial: %w", l, st.Label, err)
			}
			par, msgs, allocs, parPipe, err := runConcurrent(l, sessions, stmtsPerSession, rowsPerStmt, st.Strategy, latency, false)
			if err != nil {
				return nil, fmt.Errorf("L=%d %s parallel: %w", l, st.Label, err)
			}
			out = append(out, ConcurrentResult{
				L: l, Sessions: sessions, Strategy: st.Label,
				SerialStmtsPerSec:   serial,
				ParallelStmtsPerSec: par,
				Speedup:             par / serial,
				MsgsPerStmt:         msgs,
				AllocsPerStmt:       allocs,
				PlanCacheHits:       parPipe.PlanCacheHits,
				PlanCacheMisses:     parPipe.PlanCacheMisses,
				PlanCacheHitRate:    parPipe.HitRate(),
				Stages:              serialPipe.Stages,
			})
		}
	}
	return out, nil
}

// runConcurrent measures one cell: statements/sec across all sessions,
// plus per-statement messages and allocations.
func runConcurrent(l, sessions, stmts, rows int, strategy catalog.Strategy, latency time.Duration, serialDML bool) (stmtsPerSec, msgsPerStmt, allocsPerStmt float64, pipe stats.PipelineSnapshot, err error) {
	c, err := cluster.New(cluster.Config{
		Nodes: l, Algo: node.AlgoIndex, UseChannels: true, SerialDML: serialDML,
		NetLatency: latency,
	})
	if err != nil {
		return 0, 0, 0, pipe, err
	}
	defer c.Close()
	if err := LoadSessionSchemas(c, sessions, strategy); err != nil {
		return 0, 0, 0, pipe, err
	}
	c.ResetMetrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			table := fmt.Sprintf("a%d", s)
			for j := 0; j < stmts; j++ {
				if e := c.Insert(table, SessionInserts(s, j, rows)); e != nil {
					errs[s] = e
					return
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, pipe, e
		}
	}
	total := float64(sessions * stmts)
	m := c.Metrics()
	return total / elapsed,
		float64(m.Net.Messages) / total,
		float64(ms1.Mallocs-ms0.Mallocs) / total,
		m.Pipeline,
		nil
}

// Session-schema parameters: small enough that setup stays fast, large
// enough that every insert statement does real maintenance work (each
// join value matches sessionFanout B tuples).
const (
	sessionJoinValues = 64
	sessionFanout     = 4
)

// LoadSessionSchemas creates sessions independent two-relation schemas
// a_i(id,c,payload) ⋈ b_i(id,d,payload) = jv_i, each b_i pre-loaded, so
// concurrent sessions hold disjoint lock claims.
func LoadSessionSchemas(c *cluster.Cluster, sessions int, strategy catalog.Strategy) error {
	for i := 0; i < sessions; i++ {
		if err := loadPair(c, fmt.Sprint(i), "id", sessionJoinValues, sessionFanout, strategy); err != nil {
			return err
		}
	}
	return nil
}

// loadPair creates the two-relation schema the extension experiments
// share: a<sfx>(id, c, payload) partitioned on aPart, b<sfx>(id, d,
// payload) partitioned on id with a secondary index on d and pre-loaded
// with fanout rows per join value, and jv<sfx> = a ⋈ b on c = d under the
// given strategy, partitioned on a.id.
func loadPair(c *cluster.Cluster, sfx, aPart string, joinValues, fanout int, strategy catalog.Strategy) error {
	an, bn := "a"+sfx, "b"+sfx
	cols := func(join string) *types.Schema {
		return types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: join, Kind: types.KindInt},
			types.Column{Name: "payload", Kind: types.KindInt},
		)
	}
	if err := c.CreateTable(&catalog.Table{Name: an, Schema: cols("c"), PartitionCol: aPart}); err != nil {
		return err
	}
	if err := c.CreateTable(&catalog.Table{
		Name: bn, Schema: cols("d"), PartitionCol: "id",
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

// ConcurrentSessionsGrid formats the results.
func ConcurrentSessionsGrid(rs []ConcurrentResult) Grid {
	g := Grid{
		Title: "Concurrent sessions (extension): statement throughput, serial vs parallel dispatch",
		Header: []string{"L", "sessions", "method", "serial stmts/s", "parallel stmts/s",
			"speedup", "msgs/stmt", "allocs/stmt", "cache hit%"},
	}
	for _, r := range rs {
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			fmt.Sprintf("%d", r.Sessions),
			r.Strategy,
			fmt.Sprintf("%.0f", r.SerialStmtsPerSec),
			fmt.Sprintf("%.0f", r.ParallelStmtsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1f", r.MsgsPerStmt),
			fmt.Sprintf("%.0f", r.AllocsPerStmt),
			fmt.Sprintf("%.1f", 100*r.PlanCacheHitRate),
		})
	}
	return g
}

// SessionCost prices the concurrent-sessions workload in the paper's
// currency: per node count and method, one coordinator goroutine issues
// the statements of `sessions` sessions round-robin (stmts inserts of rows
// tuples each, every session into its own a_i ⋈ b_i schema) and the grid
// reports total workload, busiest-node I/Os and messages. Statement order
// across disjoint schemas does not move a logical meter, so these are the
// numbers any interleaving of real sessions must reproduce — which is what
// the channel render of the golden, under parallel dispatch, checks.
// Statement throughput under real concurrency is the benchmark's
// cluster.session_scaling (bench/, workload bulk-scan-chan).
func SessionCost(ls []int, sessions, stmts, rows int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Concurrent sessions (extension): logical cost of %d sessions x %d statements x %d rows", sessions, stmts, rows),
		Header: []string{"L", "method", "stmts", "tw-ios", "ios/stmt", "maxnode-ios", "msgs", "msgs/stmt"},
	}
	for _, l := range ls {
		for _, st := range ConcurrentStrategies() {
			c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex})
			if err != nil {
				return Grid{}, err
			}
			if err := LoadSessionSchemas(c, sessions, st.Strategy); err != nil {
				c.Close()
				return Grid{}, err
			}
			c.ResetMetrics()
			for j := 0; j < stmts; j++ {
				for s := 0; s < sessions; s++ {
					if err := c.Insert(fmt.Sprintf("a%d", s), SessionInserts(s, j, rows)); err != nil {
						c.Close()
						return Grid{}, fmt.Errorf("L=%d %s: %w", l, st.Label, err)
					}
				}
			}
			m := c.Metrics()
			c.Close()
			total := float64(sessions * stmts)
			g.Rows = append(g.Rows, []string{
				fmt.Sprint(l), st.Label, fmt.Sprint(sessions * stmts),
				fmt.Sprint(m.TotalIOs()), fmt.Sprintf("%.1f", float64(m.TotalIOs())/total),
				fmt.Sprint(m.MaxNodeIOs()),
				fmt.Sprint(m.Net.Messages), fmt.Sprintf("%.1f", float64(m.Net.Messages)/total),
			})
		}
	}
	return g, nil
}

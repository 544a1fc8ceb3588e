package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The hot-path experiment measures the two halves of the read-side
// extension together:
//
//   - MVCC snapshot reads: reader throughput against a 4-session write
//     load on one shared table, locked reads (readers queue behind every
//     writer's table claims, the seed's model) vs snapshot reads (readers
//     never touch the lock manager), on both concurrent transports.
//   - The allocation-lean write path: heap allocations per maintenance
//     statement under the exact conditions of the concurrent-sessions
//     experiment, so the numbers are directly comparable with the
//     checked-in BENCH_parallel.json baseline.

// HotpathReadResult is one cell of the reader-throughput half: one
// (transport, strategy) pair measured under both read modes.
type HotpathReadResult struct {
	L         int
	Transport string // "chan" or "tcp"
	Strategy  string
	Writers   int
	// LockedReadsPerSec and MVCCReadsPerSec are completed snapshot reads
	// (alternating base-table and view scans) per second while the write
	// load runs.
	LockedReadsPerSec float64
	MVCCReadsPerSec   float64
	// Speedup is MVCC over locked reader throughput.
	Speedup float64
	// LockedWriteStmtsPerSec and MVCCWriteStmtsPerSec report the write
	// load's own throughput in each mode (snapshot reads must not tax
	// writers).
	LockedWriteStmtsPerSec float64
	MVCCWriteStmtsPerSec   float64
}

// HotpathAllocResult is one cell of the allocation half: per-statement
// heap allocations of the parallel maintenance path for one strategy,
// measured like the concurrent-sessions experiment measures them.
type HotpathAllocResult struct {
	L             int
	Strategy      string
	AllocsPerStmt float64
	// BaselineAllocsPerStmt and ReductionPct are filled in by the caller
	// from a prior BENCH_parallel.json; zero when no baseline is given.
	BaselineAllocsPerStmt float64 `json:",omitempty"`
	ReductionPct          float64 `json:",omitempty"`
}

// HotpathResults is the full experiment output (the BENCH_hotpath.json
// payload).
type HotpathResults struct {
	Reads  []HotpathReadResult
	Allocs []HotpathAllocResult
}

// hotpathTransports enumerates the concurrent transports the read half
// sweeps: the latency-simulated channel interconnect the experiments run
// on, and real loopback TCP sockets.
func hotpathTransports(l int) []struct {
	Label string
	Cfg   cluster.Config
} {
	return []struct {
		Label string
		Cfg   cluster.Config
	}{
		{"chan", cluster.Config{Nodes: l, Algo: node.AlgoIndex, UseChannels: true, NetLatency: DefaultNetLatency}},
		{"tcp", cluster.Config{Nodes: l, Algo: node.AlgoIndex, UseTCP: true}},
	}
}

// Hotpath runs both halves at node count l: the reader-vs-writer sweep
// with writers concurrent write sessions, and the allocation measurement
// with allocSessions sessions issuing allocStmts statements of allocRows
// rows each (pass the concurrent-sessions experiment's parameters to make
// the numbers comparable with its baseline).
func Hotpath(l, writers, writeStmts, writeRows, allocSessions, allocStmts, allocRows int) (HotpathResults, error) {
	var res HotpathResults
	for _, tr := range hotpathTransports(l) {
		for _, st := range ConcurrentStrategies() {
			locked := tr.Cfg
			locked.LockedReads = true
			lockedReads, lockedWrites, err := runHotpathReads(locked, st.Strategy, writers, writeStmts, writeRows)
			if err != nil {
				return res, fmt.Errorf("%s %s locked: %w", tr.Label, st.Label, err)
			}
			mvccReads, mvccWrites, err := runHotpathReads(tr.Cfg, st.Strategy, writers, writeStmts, writeRows)
			if err != nil {
				return res, fmt.Errorf("%s %s mvcc: %w", tr.Label, st.Label, err)
			}
			res.Reads = append(res.Reads, HotpathReadResult{
				L: l, Transport: tr.Label, Strategy: st.Label, Writers: writers,
				LockedReadsPerSec:      lockedReads,
				MVCCReadsPerSec:        mvccReads,
				Speedup:                mvccReads / lockedReads,
				LockedWriteStmtsPerSec: lockedWrites,
				MVCCWriteStmtsPerSec:   mvccWrites,
			})
		}
	}
	for _, st := range ConcurrentStrategies() {
		_, _, allocs, _, err := runConcurrent(l, allocSessions, allocStmts, allocRows, st.Strategy, DefaultNetLatency, false)
		if err != nil {
			return res, fmt.Errorf("allocs %s: %w", st.Label, err)
		}
		res.Allocs = append(res.Allocs, HotpathAllocResult{L: l, Strategy: st.Label, AllocsPerStmt: allocs})
	}
	return res, nil
}

// hotpathFanout is the b-rows-per-join-value of the contended schema:
// higher than the concurrent-sessions experiment's fanout so each write
// statement does substantial maintenance work (and so holds its claims
// longer) while the churned tables stay small.
const hotpathFanout = 8

// loadHotpathSchema builds the contended schema: one shared pair
// a(id,c) ⋈ b(id,d) = jv, b pre-loaded with hotpathFanout rows per join
// value, so every writer claims the same table locks and every inserted
// a-row yields exactly hotpathFanout view rows.
func loadHotpathSchema(c *cluster.Cluster, strategy catalog.Strategy) error {
	if err := c.CreateTable(&catalog.Table{
		Name: "a",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "c", Kind: types.KindInt},
		),
		PartitionCol: "id",
	}); err != nil {
		return err
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
		return err
	}
	rows := make([]types.Tuple, 0, sessionJoinValues*hotpathFanout)
	id := int64(0)
	for v := int64(0); v < sessionJoinValues; v++ {
		for f := 0; f < hotpathFanout; f++ {
			id++
			rows = append(rows, types.Tuple{types.Int(id), types.Int(v)})
		}
	}
	if err := c.Insert("b", rows); err != nil {
		return err
	}
	if err := c.RefreshStats("b"); err != nil {
		return err
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
		return err
	}
	// A second view over the same join, partitioned on the b side: a base
	// table usually backs more than one view, and each extra view extends
	// the maintenance pipeline a writer runs while holding its claims.
	return c.CreateView(&catalog.View{
		Name:   "jv2",
		Tables: []string{"a", "b"},
		Joins:  []catalog.JoinPred{{Left: "a", LeftCol: "c", Right: "b", RightCol: "d"}},
		Out: []catalog.OutCol{
			{Table: "b", Col: "id"}, {Table: "b", Col: "d"}, {Table: "a", Col: "id"},
		},
		PartitionTable: "b", PartitionCol: "id",
		Strategy: strategy,
	})
}

// hotpathKeep is how many of its own insert batches a writer keeps live
// before deleting the oldest: the churn keeps the shared table at a small
// steady-state size, so reader cost measures lock waits and snapshot
// overhead rather than an ever-growing scan.
const hotpathKeep = 1

// runHotpathReads measures one cell: writers sessions each run writeStmts
// rounds against the shared table — insert a batch of writeRows rows,
// then delete the batch from hotpathKeep rounds ago — while two readers
// continuously scan, one the base table, one the view. Reader throughput
// is completed reads per second over the write load's lifetime; reads
// started before the last writer finishes but completed after still count
// (a locked reader parked on the queue when writers drain finishes its
// read).
func runHotpathReads(cfg cluster.Config, strategy catalog.Strategy, writers, writeStmts, writeRows int) (readsPerSec, writeStmtsPerSec float64, err error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	if err := loadHotpathSchema(c, strategy); err != nil {
		return 0, 0, err
	}
	var (
		writersDone atomic.Bool
		reads       atomic.Int64
		wg, wwg     sync.WaitGroup
	)
	errs := make([]error, writers+2)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		wwg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wwg.Done()
			batchBase := func(j int) int64 { return int64(1_000_000*(w+1) + j*writeRows) }
			for j := 0; j < writeStmts; j++ {
				batch := make([]types.Tuple, writeRows)
				base := batchBase(j)
				for r := 0; r < writeRows; r++ {
					batch[r] = types.Tuple{
						types.Int(base + int64(r)),
						types.Int(int64(j*writeRows+r) % sessionJoinValues),
					}
				}
				if e := c.Insert("a", batch); e != nil {
					errs[w] = e
					return
				}
				if j < hotpathKeep {
					continue
				}
				old := batchBase(j - hotpathKeep)
				_, e := c.Delete("a", expr.And{Terms: []expr.Expr{
					expr.Cmp{Op: expr.GE, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(old)}},
					expr.Cmp{Op: expr.LT, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(old + int64(writeRows))}},
				}})
				if e != nil {
					errs[w] = e
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !writersDone.Load() {
				var e error
				if r == 0 {
					_, e = c.TableRows("a")
				} else {
					_, e = c.ViewRows("jv")
				}
				if e != nil {
					errs[writers+r] = e
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wwg.Wait()
	elapsed := time.Since(start).Seconds()
	writersDone.Store(true)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	totalStmts := writers * (2*writeStmts - hotpathKeep) // inserts plus trailing deletes
	return float64(reads.Load()) / elapsed, float64(totalStmts) / elapsed, nil
}

// HotpathReadGrid formats the reader-throughput half.
func HotpathReadGrid(rs []HotpathReadResult) Grid {
	g := Grid{
		Title: "Hot path (extension): snapshot-read throughput under a concurrent write load",
		Header: []string{"L", "transport", "method", "writers", "locked reads/s",
			"mvcc reads/s", "speedup", "locked write stmts/s", "mvcc write stmts/s"},
	}
	for _, r := range rs {
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			r.Transport,
			r.Strategy,
			fmt.Sprintf("%d", r.Writers),
			fmt.Sprintf("%.0f", r.LockedReadsPerSec),
			fmt.Sprintf("%.0f", r.MVCCReadsPerSec),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%.0f", r.LockedWriteStmtsPerSec),
			fmt.Sprintf("%.0f", r.MVCCWriteStmtsPerSec),
		})
	}
	return g
}

// HotpathAllocGrid formats the allocation half.
func HotpathAllocGrid(rs []HotpathAllocResult) Grid {
	g := Grid{
		Title:  "Hot path (extension): heap allocations per maintenance statement",
		Header: []string{"L", "method", "allocs/stmt", "baseline", "reduction"},
	}
	for _, r := range rs {
		baseline, reduction := "-", "-"
		if r.BaselineAllocsPerStmt > 0 {
			baseline = fmt.Sprintf("%.0f", r.BaselineAllocsPerStmt)
			reduction = fmt.Sprintf("%.1f%%", r.ReductionPct)
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			r.Strategy,
			fmt.Sprintf("%.0f", r.AllocsPerStmt),
			baseline,
			reduction,
		})
	}
	return g
}

// ReadModeCost pins what the read mode must not change. Per maintenance
// method and read mode (MVCC snapshot reads vs Config.LockedReads), one
// goroutine churns a session schema on an l-node cluster — insert a batch
// of rows tuples, delete the previous batch by id range — and scans the
// base table and the view after every round. Reads are unmetered, so the
// logical cost of the write stream and the rows each scan returns must be
// identical in both modes and on every transport (Direct has no MVCC at
// all; the channel render runs the snapshot path). Reader and writer
// throughput side by side is the benchmark's traced pass, which replays
// its stream with LockedReads swapped in (cluster.mvcc_write_tax, bench/).
func ReadModeCost(l, rounds, rows int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Hot path (extension): logical cost of %d insert+delete rounds x %d rows beside scans, by read mode", rounds, rows),
		Header: []string{"L", "method", "reads", "stmts", "tw-ios", "maxnode-ios", "msgs", "base rows read", "view rows read"},
	}
	for _, st := range ConcurrentStrategies() {
		for _, locked := range []bool{false, true} {
			c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex, LockedReads: locked})
			if err != nil {
				return Grid{}, err
			}
			defer c.Close()
			if err := LoadSessionSchemas(c, 1, st.Strategy); err != nil {
				return Grid{}, err
			}
			c.ResetMetrics()
			var baseRead, viewRead int
			for j := 0; j < rounds; j++ {
				batch := SessionInserts(0, j, rows)
				if err := c.Insert("a0", batch); err != nil {
					return Grid{}, err
				}
				if j > 0 {
					first := batch[0][0].I - int64(rows)
					if _, err := c.Delete("a0", expr.And{Terms: []expr.Expr{
						expr.Cmp{Op: expr.GE, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(first)}},
						expr.Cmp{Op: expr.LT, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(first + int64(rows))}},
					}}); err != nil {
						return Grid{}, err
					}
				}
				base, err := c.TableRows("a0")
				if err != nil {
					return Grid{}, err
				}
				view, err := c.ViewRows("jv0")
				if err != nil {
					return Grid{}, err
				}
				baseRead += len(base)
				viewRead += len(view)
			}
			m := c.Metrics()
			mode := "mvcc"
			if locked {
				mode = "locked"
			}
			g.Rows = append(g.Rows, []string{
				fmt.Sprint(l), st.Label, mode, fmt.Sprint(2*rounds - 1),
				fmt.Sprint(m.TotalIOs()), fmt.Sprint(m.MaxNodeIOs()), fmt.Sprint(m.Net.Messages),
				fmt.Sprint(baseRead), fmt.Sprint(viewRead),
			})
		}
	}
	return g, nil
}

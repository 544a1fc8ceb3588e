package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The async-maintenance experiment measures what the durable group-commit
// queue buys over per-statement view maintenance. Three delta mixes run
// against the adaptive experiment's schema (a ⋈ b, advisor-chosen
// strategy) on the channel transport with the simulated interconnect:
//
//   - insert: a trickle of single-row inserts — the epoch flusher turns L
//     page writes per statement into one batched statement per epoch, so
//     page-granular I/O amortizes across the batch;
//   - mixed: inserts chased by deletes of just-inserted rows — within an
//     epoch the pairs cancel during compaction and never cost any
//     maintenance I/O at all;
//   - update: a hot set of rows updated over and over — repeated-key
//     collapse leaves one delete+insert per hot row per epoch.
//
// Each mix runs synchronously (per-statement maintenance, the paper's
// model) and with epoch sizes 8, 32 and 128. Epochs are driven
// explicitly — no background flusher — so every run does identical work
// in a deterministic order; the clock still runs across enqueue + drain,
// so statements/sec reflects true completion throughput, not enqueue
// latency alone.

// AsyncResult is one (mix, mode) cell of the async-maintenance
// comparison.
type AsyncResult struct {
	L   int
	Mix string
	// Mode is "sync" for per-statement maintenance or "epoch-N" for the
	// async queue flushed every N statements.
	Mode      string
	EpochSize int
	// Statements issued and delta tuples they carried.
	Statements int
	Tuples     int
	// TWIOs is the paper's total workload (I/Os summed over nodes) for the
	// whole stream including flushes; MaxNodeIOs the summed per-statement
	// response proxy; Messages the interconnect traffic.
	TWIOs      int64
	MaxNodeIOs int64
	Messages   int64
	// StmtsPerSec is statements / (enqueue + drain) wall time.
	StmtsPerSec float64
	// Queue-side totals: epochs flushed, tuples compaction cancelled, and
	// the cancelled fraction of enqueued delta tuples. Zero for sync runs.
	EpochsFlushed   int64
	DeltasCancelled int64
	CancelRate      float64
}

// asyncEpochSizes are the compared flush cadences; 0 is the synchronous
// per-statement baseline.
var asyncEpochSizes = []int{0, 8, 32, 128}

// asyncMixes lists the delta mixes in display order.
var asyncMixes = []string{"insert", "mixed", "update"}

// AsyncMaintenance runs every (mix, epoch size) cell on an l-node
// cluster, statements statements per cell.
func AsyncMaintenance(l, statements int) ([]AsyncResult, error) {
	var out []AsyncResult
	for _, mix := range asyncMixes {
		for _, epoch := range asyncEpochSizes {
			r, err := runAsync(l, mix, epoch, statements)
			if err != nil {
				return nil, fmt.Errorf("L=%d %s epoch=%d: %w", l, mix, epoch, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func runAsync(l int, mix string, epoch, statements int) (AsyncResult, error) {
	cfg := cluster.Config{
		Nodes: l, Algo: node.AlgoIndex, UseChannels: true,
		NetLatency: DefaultNetLatency,
	}
	if epoch > 0 {
		cfg.AsyncMaintenance = true
	}
	c, err := newCluster(cfg)
	if err != nil {
		return AsyncResult{}, err
	}
	defer c.Close()
	if err := loadAdaptive(c, catalog.StrategyAuto); err != nil {
		return AsyncResult{}, err
	}

	// The update mix needs a settled hot set before the clock starts.
	var hot []int64
	if mix == "update" {
		rows := make([]types.Tuple, 64)
		for i := range rows {
			id := int64(3_500_000 + i)
			rows[i] = types.Tuple{types.Int(id), types.Int(int64(i % adaptiveJoinValues)), types.Int(id % 97)}
			hot = append(hot, id)
		}
		if err := c.Insert("a", rows); err != nil {
			return AsyncResult{}, err
		}
		if err := c.Flush(); err != nil {
			return AsyncResult{}, err
		}
		if err := c.RefreshStats("a"); err != nil {
			return AsyncResult{}, err
		}
	}

	c.ResetMetrics()
	rng := rand.New(rand.NewSource(17))
	nextID := int64(3_000_000)
	eqID := func(k int64) expr.Expr {
		return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(k)}}
	}
	fresh := func() types.Tuple {
		nextID++
		return types.Tuple{types.Int(nextID), types.Int(int64(rng.Intn(adaptiveJoinValues))), types.Int(nextID % 97)}
	}

	tuples := 0
	start := time.Now()
	var recent []int64
	for i := 0; i < statements; i++ {
		switch {
		case mix == "insert":
			if err := c.Insert("a", []types.Tuple{fresh()}); err != nil {
				return AsyncResult{}, err
			}
			tuples++
		case mix == "mixed" && (i%2 == 0 || len(recent) == 0):
			batch := make([]types.Tuple, 4)
			for j := range batch {
				batch[j] = fresh()
				recent = append(recent, nextID)
			}
			if err := c.Insert("a", batch); err != nil {
				return AsyncResult{}, err
			}
			tuples += len(batch)
		case mix == "mixed":
			k := recent[0]
			recent = recent[1:]
			if _, err := c.Delete("a", eqID(k)); err != nil {
				return AsyncResult{}, err
			}
			tuples++
		default: // update
			k := hot[i%len(hot)]
			set := map[string]types.Value{"payload": types.Int(int64(i))}
			if _, err := c.Update("a", set, eqID(k)); err != nil {
				return AsyncResult{}, err
			}
			tuples++
		}
		if epoch > 0 && (i+1)%epoch == 0 {
			if err := c.Flush(); err != nil {
				return AsyncResult{}, err
			}
		}
	}
	if err := c.Flush(); err != nil {
		return AsyncResult{}, err
	}
	elapsed := time.Since(start).Seconds()

	m := c.Metrics()
	mode := "sync"
	if epoch > 0 {
		mode = fmt.Sprintf("epoch-%d", epoch)
	}
	return AsyncResult{
		L:               l,
		Mix:             mix,
		Mode:            mode,
		EpochSize:       epoch,
		Statements:      statements,
		Tuples:          tuples,
		TWIOs:           m.TotalIOs(),
		MaxNodeIOs:      m.MaxNodeIOs(),
		Messages:        m.Net.Messages,
		StmtsPerSec:     float64(statements) / elapsed,
		EpochsFlushed:   m.Queue.EpochsFlushed,
		DeltasCancelled: m.Queue.DeltasCancelled,
		CancelRate:      m.Queue.CancelRate(),
	}, nil
}

// AsyncGrid formats the results.
func AsyncGrid(rs []AsyncResult) Grid {
	g := Grid{
		Title: "Async maintenance (extension): per-statement vs epoch-batched group commit",
		Header: []string{"L", "mix", "mode", "stmts", "tuples", "tw-ios",
			"maxnode-ios", "msgs", "stmts/sec", "epochs", "cancel%"},
	}
	for _, r := range rs {
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			r.Mix,
			r.Mode,
			fmt.Sprintf("%d", r.Statements),
			fmt.Sprintf("%d", r.Tuples),
			fmt.Sprintf("%d", r.TWIOs),
			fmt.Sprintf("%d", r.MaxNodeIOs),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.0f", r.StmtsPerSec),
			fmt.Sprintf("%d", r.EpochsFlushed),
			fmt.Sprintf("%.1f", 100*r.CancelRate),
		})
	}
	return g
}

// AsyncCost runs every (mix, epoch size) cell on an l-node cluster,
// statements statements per cell; epoch size 0 is the synchronous
// per-statement baseline. Epochs are flushed explicitly by the issuing
// goroutine, so every cell does identical work in a fixed order and every
// column is a logical count. What batching buys in wall-clock is the
// benchmark's cluster.asyncq.* metrics (bench/, workload
// async-manyviews-chan).
func AsyncCost(l, statements int, epochs []int) (Grid, error) {
	g := Grid{
		Title: "Async maintenance (extension): per-statement vs epoch-batched group commit",
		Header: []string{"L", "mix", "mode", "stmts", "tuples", "tw-ios",
			"maxnode-ios", "msgs", "epochs", "cancelled", "cancel%"},
	}
	for _, mix := range asyncMixes {
		for _, epoch := range epochs {
			row, err := asyncCell(l, mix, epoch, statements)
			if err != nil {
				return Grid{}, fmt.Errorf("L=%d %s epoch=%d: %w", l, mix, epoch, err)
			}
			g.Rows = append(g.Rows, row)
		}
	}
	return g, nil
}

func asyncCell(l int, mix string, epoch, statements int) ([]string, error) {
	c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex, AsyncMaintenance: epoch > 0})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := loadAdaptive(c, catalog.StrategyAuto); err != nil {
		return nil, err
	}
	// The update mix needs a settled hot set before the meters start.
	var hot []int64
	if mix == "update" {
		rows := make([]types.Tuple, 64)
		for i := range rows {
			id := int64(3_500_000 + i)
			rows[i] = types.Tuple{types.Int(id), types.Int(int64(i % adaptiveJoinValues)), types.Int(id % 97)}
			hot = append(hot, id)
		}
		if err := c.Insert("a", rows); err != nil {
			return nil, err
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		if err := c.RefreshStats("a"); err != nil {
			return nil, err
		}
	}
	c.ResetMetrics()
	rng := rand.New(rand.NewSource(17))
	nextID := int64(3_000_000)
	eqID := func(k int64) expr.Expr {
		return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(k)}}
	}
	fresh := func(n int) []types.Tuple {
		out := make([]types.Tuple, n)
		for i := range out {
			nextID++
			out[i] = types.Tuple{types.Int(nextID), types.Int(int64(rng.Intn(adaptiveJoinValues))), types.Int(nextID % 97)}
		}
		return out
	}
	tuples := 0
	var recent []int64
	for i := 0; i < statements; i++ {
		var err error
		switch {
		case mix == "insert":
			err = c.Insert("a", fresh(1))
			tuples++
		case mix == "mixed" && (i%2 == 0 || len(recent) == 0):
			err = c.Insert("a", fresh(4))
			for k := nextID - 3; k <= nextID; k++ {
				recent = append(recent, k)
			}
			tuples += 4
		case mix == "mixed":
			_, err = c.Delete("a", eqID(recent[0]))
			recent = recent[1:]
			tuples++
		default: // update
			set := map[string]types.Value{"payload": types.Int(int64(i))}
			_, err = c.Update("a", set, eqID(hot[i%len(hot)]))
			tuples++
		}
		if err == nil && epoch > 0 && (i+1)%epoch == 0 {
			err = c.Flush()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	m := c.Metrics()
	mode := "sync"
	if epoch > 0 {
		mode = fmt.Sprintf("epoch-%d", epoch)
	}
	return []string{
		fmt.Sprint(l), mix, mode, fmt.Sprint(statements), fmt.Sprint(tuples),
		fmt.Sprint(m.TotalIOs()), fmt.Sprint(m.MaxNodeIOs()), fmt.Sprint(m.Net.Messages),
		fmt.Sprint(m.Queue.EpochsFlushed), fmt.Sprint(m.Queue.DeltasCancelled),
		fmt.Sprintf("%.1f", 100*m.Queue.CancelRate()),
	}, nil
}

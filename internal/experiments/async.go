package experiments

import (
	"fmt"
	"math/rand"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The async-maintenance experiment measures what the durable group-commit
// queue changes against per-statement view maintenance, in logical cost.
// Three delta mixes run against the adaptive experiment's schema (a ⋈ b,
// advisor-chosen strategy):
//
//   - insert: a trickle of single-row inserts — batching leaves the page
//     I/O where it was and collapses the messages (one batched statement
//     per epoch);
//   - mixed: inserts chased by deletes of just-inserted rows — within an
//     epoch the pairs cancel during compaction and never cost any
//     maintenance I/O at all;
//   - update: a hot set of rows updated over and over — repeated-key
//     collapse leaves one delete+insert per hot row per epoch.
var asyncMixes = []string{"insert", "mixed", "update"}

// AsyncMaintenance runs every (mix, epoch size) cell on an l-node cluster,
// statements statements per cell; epoch size 0 is the synchronous
// per-statement baseline (the paper's model). Epochs are flushed
// explicitly by the issuing goroutine — no background flusher — so every
// cell does identical work in a fixed order and every column is a logical
// count. What batching buys in wall-clock is the benchmark's
// cluster.asyncq.* metrics (bench/, workload async-manyviews-chan).
func AsyncMaintenance(l, statements int, epochs []int) (Grid, error) {
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
			recent = append(recent, nextID-3, nextID-2, nextID-1, nextID)
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

package experiments

import (
	"fmt"

	"joinview/internal/cluster"
	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// Hotpath pins what the read mode must not change. Per maintenance method
// and read mode (MVCC snapshot reads vs Config.LockedReads), one goroutine
// churns a session schema on an l-node cluster — insert a batch of rows
// tuples, delete the previous batch by id range — and scans the base
// table and the view after every round. Reads are unmetered, so the
// logical cost of the write stream and the rows each scan returns must be
// identical in both modes and on every transport (Direct has no MVCC at
// all; the channel render runs the snapshot path). Reader and writer
// throughput side by side is the benchmark's traced pass, which replays
// its stream with LockedReads swapped in (cluster.mvcc_write_tax, bench/).
func Hotpath(l, rounds, rows int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Hot path (extension): logical cost of %d insert+delete rounds x %d rows beside scans, by read mode", rounds, rows),
		Header: []string{"L", "method", "reads", "stmts", "tw-ios", "maxnode-ios", "msgs", "base rows read", "view rows read"},
	}
	cell := func(v Variant, mode string) error {
		c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex, LockedReads: mode == "locked"})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := LoadSessionSchemas(c, 1, v.Strategy); err != nil {
			return err
		}
		c.ResetMetrics()
		var baseRead, viewRead int
		for j := 0; j < rounds; j++ {
			batch := SessionInserts(0, j, rows)
			if err := c.Insert("a0", batch); err != nil {
				return err
			}
			if j > 0 {
				first := batch[0][0].I
				if _, err := c.Delete("a0", expr.And{Terms: []expr.Expr{
					expr.Cmp{Op: expr.GE, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(first - int64(rows))}},
					expr.Cmp{Op: expr.LT, L: expr.Col{Name: "id"}, R: expr.Const{V: types.Int(first)}},
				}}); err != nil {
					return err
				}
			}
			base, err := c.TableRows("a0")
			if err != nil {
				return err
			}
			view, err := c.ViewRows("jv0")
			if err != nil {
				return err
			}
			baseRead += len(base)
			viewRead += len(view)
		}
		m := c.Metrics()
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), v.Label, mode, fmt.Sprint(2*rounds - 1),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(m.MaxNodeIOs()), fmt.Sprint(m.Net.Messages),
			fmt.Sprint(baseRead), fmt.Sprint(viewRead),
		})
		return nil
	}
	for _, v := range ConcurrentStrategies() {
		for _, mode := range []string{"mvcc", "locked"} {
			if err := cell(v, mode); err != nil {
				return Grid{}, fmt.Errorf("hotpath %s %s: %w", v.Label, mode, err)
			}
		}
	}
	return g, nil
}

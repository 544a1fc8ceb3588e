package experiments

import (
	"fmt"
	"strings"

	"joinview/internal/cluster"
	"joinview/internal/node"
)

// Elastic prices a 4 -> 5 node expansion per maintenance method on a
// quiesced cluster: the session schemas take stmts rounds of inserts
// (rows tuples per statement) from one goroutine, a fifth node is added
// with no statement in flight, and the same stream runs again on five
// nodes. The copy columns are the migration's own bill (MigrationStats) —
// deterministic only because nothing commits during the copy; the
// before/after columns show the maintenance cost per statement the
// expansion leaves behind. A second block repeats the expansion at
// ReplicationFactor 2: the same slot copy and promotion with every write
// also mirrored to the slot's follower, which stays where it was. Any
// failed statement fails the run. Zero
// statement errors *under* concurrent sessions is
// TestMigrationWithConcurrentDML's claim (internal/cluster); the
// throughput dip during the copy has no benchmark workload yet (ROADMAP).
func Elastic(sessions, stmts, rows int) (Grid, error) {
	g := Grid{
		Title: fmt.Sprintf("Online elasticity (extension): quiesced 4 -> 5 node expansion, %d statements x %d rows per window", sessions*stmts, rows),
		Header: []string{"method", "tw-ios before", "ios/stmt before", "rows copied", "pages copied", "envelopes",
			"tw-ios after", "ios/stmt after", "nodes"},
	}
	cell := func(v Variant, rf int) error {
		c, err := newCluster(cluster.Config{Nodes: 4, Algo: node.AlgoIndex, ReplicationFactor: rf})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := LoadSessionSchemas(c, sessions, v.Strategy); err != nil {
			return err
		}
		round := 0
		window := func() (int64, error) {
			c.ResetMetrics()
			for end := round + stmts; round < end; round++ {
				if err := sessionRound(c, sessions, round, rows); err != nil {
					return 0, err
				}
			}
			return c.Metrics().TotalIOs(), nil
		}
		before, err := window()
		if err != nil {
			return err
		}
		if _, err := c.AddNode(); err != nil {
			return fmt.Errorf("AddNode: %w", err)
		}
		mig, _ := c.LastMigration()
		after, err := window()
		if err != nil {
			return err
		}
		if err := c.CheckAllStructures(); err != nil {
			return fmt.Errorf("post-expansion consistency: %w", err)
		}
		total := float64(sessions * stmts)
		label := v.Label
		if rf > 1 {
			// Kept no wider than the longest unreplicated label.
			label = fmt.Sprintf("%s RF=%d", strings.Replace(label, "auxiliary", "aux", 1), rf)
		}
		g.Rows = append(g.Rows, []string{
			label,
			fmt.Sprint(before), fmt.Sprintf("%.1f", float64(before)/total),
			fmt.Sprint(mig.RowsCopied), fmt.Sprint(mig.PagesCopied), fmt.Sprint(mig.Envelopes),
			fmt.Sprint(after), fmt.Sprintf("%.1f", float64(after)/total),
			fmt.Sprint(c.NumNodes()),
		})
		return nil
	}
	for _, rf := range []int{1, 2} {
		for _, v := range ConcurrentStrategies() {
			if err := cell(v, rf); err != nil {
				return Grid{}, fmt.Errorf("elastic %s RF=%d: %w", v.Label, rf, err)
			}
		}
	}
	return g, nil
}

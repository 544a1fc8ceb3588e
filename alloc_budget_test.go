//go:build !race

// TestAllocBudget is the allocation-regression gate the CI bench-smoke
// job runs: per-statement heap allocations of the maintenance hot path,
// measured deterministically (direct transport, serial dispatch, one
// session) against checked-in budgets. The budgets are the measured
// steady-state numbers plus ~25% headroom — tight enough that undoing any
// single hot-path optimisation (the fragment arena, pooled partition
// bucketing, plan-time schema precompute, the projection-clone removal)
// blows them, loose enough that btree splits and map growth never do.
// When a deliberate change moves the steady state, re-measure with
// `go test -run TestAllocBudget -v .` and update the table.

package joinview

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/experiments"
	"joinview/internal/node"
)

// allocBudgets caps allocations per 8-row insert statement by strategy.
var allocBudgets = map[catalog.Strategy]float64{
	catalog.StrategyNaive:       440, // measured steady state ~350
	catalog.StrategyAuxRel:      520, // measured steady state ~415
	catalog.StrategyGlobalIndex: 770, // measured steady state ~613
}

func TestAllocBudget(t *testing.T) {
	const l, rows, warm, runs = 8, 8, 24, 64
	for _, st := range experiments.ConcurrentStrategies() {
		t.Run(st.Label, func(t *testing.T) {
			c, err := cluster.New(cluster.Config{Nodes: l, JoinAlgo: node.AlgoIndex})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := experiments.LoadSessionSchemas(c, 1, st.Strategy); err != nil {
				t.Fatal(err)
			}
			j := 0
			insert := func() error {
				err := c.Insert("a0", experiments.SessionInserts(0, j, rows))
				j++
				return err
			}
			for i := 0; i < warm; i++ {
				if err := insert(); err != nil {
					t.Fatal(err)
				}
			}
			var insErr error
			avg := testing.AllocsPerRun(runs, func() {
				if e := insert(); e != nil && insErr == nil {
					insErr = e
				}
			})
			if insErr != nil {
				t.Fatal(insErr)
			}
			budget := allocBudgets[st.Strategy]
			t.Logf("%s: %.0f allocs/stmt (budget %.0f)", st.Label, avg, budget)
			if avg > budget {
				t.Errorf("%s allocates %.0f per statement, over the checked-in budget %.0f — a hot-path regression (or update allocBudgets if deliberate)",
					st.Label, avg, budget)
			}
		})
	}
}

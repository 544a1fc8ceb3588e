package experiments

import (
	"fmt"
	"math/rand"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The adaptive-strategy experiment pits the cost advisor against each
// pinned maintenance method over a statement stream whose delta sizes and
// join-value distributions are deliberately mixed: single-digit deltas
// alternate with multi-hundred-tuple ones, and join values alternate
// between uniform draws (the paper's assumption 9) and a Zipf(1.5)
// hotspot. The updated relation is partitioned on its join attribute (as
// customer is in the paper's Teradata experiment), so it carries no
// auxiliary structures of its own and the adaptive run pays nothing for
// keeping every method available. StrategyAuto's method is priced once per
// compiled plan — neither delta size nor skew enters the model — so the
// picks column reads the compiled plan before each statement; the adaptive
// run must match the best fixed method's total workload while the
// mispinned methods fall behind.

// AdaptiveDelta is one statement of the mixed stream.
type AdaptiveDelta struct {
	Size int
	Zipf bool
}

// AdaptiveDeltas builds the deterministic statement stream: delta sizes
// cycle through the small regime (1, 2, 4, 8 tuples) on even statements
// and the large regime (256, 512, 768) on odd ones; every other statement
// draws its join values from the Zipf hotspot instead of uniformly.
func AdaptiveDeltas(statements int) []AdaptiveDelta {
	small := []int{1, 2, 4, 8}
	large := []int{256, 512, 768}
	out := make([]AdaptiveDelta, statements)
	for i := range out {
		if i%2 == 0 {
			out[i] = AdaptiveDelta{Size: small[(i/2)%len(small)], Zipf: i%4 == 2}
		} else {
			out[i] = AdaptiveDelta{Size: large[(i/2)%len(large)], Zipf: i%4 == 3}
		}
	}
	return out
}

// Adaptive-workload shape: B's join-value domain and fan-out (the paper's
// N = 10).
const (
	adaptiveJoinValues = 640
	adaptiveFanout     = PaperN
)

// adaptiveTuples generates one statement's insert batch with
// cluster-unique ids and join values from the requested distribution.
func adaptiveTuples(d AdaptiveDelta, nextID *int64, rng *rand.Rand, zipf *rand.Zipf) []types.Tuple {
	out := make([]types.Tuple, d.Size)
	for i := range out {
		var v int64
		if d.Zipf {
			v = int64(zipf.Uint64())
		} else {
			v = int64(rng.Intn(adaptiveJoinValues))
		}
		*nextID++
		out[i] = types.Tuple{types.Int(*nextID), types.Int(v), types.Int(*nextID % 97)}
	}
	return out
}

// loadAdaptive creates the schema the adaptive, async and replica grids
// share: a(id, c, payload) partitioned on the join attribute c (so inserts
// into a maintain no auxiliary structures, whatever the strategy),
// b(id, d, payload) pre-loaded with adaptiveJoinValues × adaptiveFanout
// rows, and jv = a ⋈ b under the given strategy.
func loadAdaptive(c *cluster.Cluster, strategy catalog.Strategy) error {
	if err := loadPair(c, "", "c", adaptiveJoinValues, adaptiveFanout, strategy); err != nil {
		return err
	}
	c.ResetMetrics()
	return nil
}

// adaptiveMethods are the compared runs: each pinned method, then
// StrategyAuto, the cost-advisor-driven chooser.
var adaptiveMethods = []Variant{
	{Label: "naive", Strategy: catalog.StrategyNaive},
	{Label: "auxiliary relation", Strategy: catalog.StrategyAuxRel},
	{Label: "global index", Strategy: catalog.StrategyGlobalIndex},
	{Label: "adaptive", Strategy: catalog.StrategyAuto},
}

// AdaptiveStrategy runs the mixed stream once per fixed method and once
// under StrategyAuto on an l-node cluster and reports each run's total
// workload, summed per-statement busiest-node I/Os and messages; for the
// adaptive run the last column counts how many statements ran under a
// plan compiled to each fixed method.
func AdaptiveStrategy(l, statements int) (Grid, error) {
	g := Grid{
		Title:  "Adaptive strategy (extension): fixed methods vs the cost advisor over a mixed delta stream",
		Header: []string{"L", "method", "stmts", "tuples", "tw-ios", "maxnode-ios", "msgs", "picks naive/AR/GI"},
	}
	cell := func(v Variant) error {
		c, err := newCluster(cluster.Config{Nodes: l, JoinAlgo: node.AlgoIndex})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := loadAdaptive(c, v.Strategy); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rand.New(rand.NewSource(11)), 1.5, 1, uint64(adaptiveJoinValues-1))
		nextID := int64(2_000_000)
		var tuples int
		var maxNode int64
		picks := map[catalog.Strategy]int{}
		for _, d := range AdaptiveDeltas(statements) {
			batch := adaptiveTuples(d, &nextID, rng, zipf)
			tuples += len(batch)
			mp, err := mplan.Compile(c.Catalog(), c.Stats(), "a", maintain.OpInsert)
			if err != nil {
				return err
			}
			picks[mp.Stages[len(mp.Stages)-1].View.Strategy]++ // the one view, jv
			before := c.Metrics()
			if err := c.Insert("a", batch); err != nil {
				return err
			}
			maxNode += c.Metrics().Sub(before).MaxNodeIOs()
		}
		pickCell := "-"
		if v.Strategy == catalog.StrategyAuto {
			pickCell = fmt.Sprintf("%d/%d/%d", picks[catalog.StrategyNaive],
				picks[catalog.StrategyAuxRel], picks[catalog.StrategyGlobalIndex])
		}
		m := c.Metrics()
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), v.Label, fmt.Sprint(statements), fmt.Sprint(tuples),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(maxNode), fmt.Sprint(m.Net.Messages), pickCell,
		})
		return nil
	}
	for _, v := range adaptiveMethods {
		if err := cell(v); err != nil {
			return Grid{}, fmt.Errorf("L=%d %s: %w", l, v.Label, err)
		}
	}
	return g, nil
}

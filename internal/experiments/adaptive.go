package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
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
// keeping every option open: StrategyAuto re-chooses per statement from
// the cached plan's precompiled options and must match the best fixed
// method's total workload while the mispinned methods fall behind.

// AdaptiveResult is one strategy's totals over the mixed stream.
type AdaptiveResult struct {
	L          int
	Strategy   string
	Statements int
	Tuples     int
	// TWIOs and MaxNodeIOs are the summed total workload and the summed
	// per-statement response proxy; Messages counts interconnect traffic.
	TWIOs      int64
	MaxNodeIOs int64
	Messages   int64
	// Plan-cache effectiveness over the stream: with DDL quiescent, every
	// statement after the first should reuse the compiled pipeline.
	PlanCacheHits    int64
	PlanCacheMisses  int64
	PlanCacheHitRate float64
	// StagePages breaks the I/Os down by pipeline stage kind (serial
	// dispatch attributes exactly).
	StagePages map[string]int64
	// Picks counts, for the adaptive run only, how many statements the
	// advisor resolved to each method; fixed runs leave it nil.
	Picks map[string]int
}

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

// loadAdaptive creates the experiment schema: a(id, c, payload)
// partitioned on the join attribute c (so inserts into a maintain no
// auxiliary structures, whatever the strategy), b(id, d, payload)
// partitioned on id with a secondary index on d, pre-loaded with
// adaptiveJoinValues × adaptiveFanout rows, and jv = a ⋈ b under the given
// strategy.
func loadAdaptive(c *cluster.Cluster, strategy catalog.Strategy) error {
	if err := loadPair(c, "", "c", adaptiveJoinValues, adaptiveFanout, strategy); err != nil {
		return err
	}
	c.ResetMetrics()
	return nil
}

// AdaptiveStrategies lists the compared methods; the adaptive entry is
// StrategyAuto, the cost-advisor-driven chooser.
func AdaptiveStrategies() []struct {
	Label    string
	Strategy catalog.Strategy
} {
	return []struct {
		Label    string
		Strategy catalog.Strategy
	}{
		{"naive", catalog.StrategyNaive},
		{"auxiliary relation", catalog.StrategyAuxRel},
		{"global index", catalog.StrategyGlobalIndex},
		{"adaptive", catalog.StrategyAuto},
	}
}

// AdaptiveStrategy runs the mixed stream once per method on an l-node
// cluster and reports each method's totals.
func AdaptiveStrategy(l, statements int) ([]AdaptiveResult, error) {
	deltas := AdaptiveDeltas(statements)
	var out []AdaptiveResult
	for _, st := range AdaptiveStrategies() {
		r, err := runAdaptive(l, st.Label, st.Strategy, deltas)
		if err != nil {
			return nil, fmt.Errorf("L=%d %s: %w", l, st.Label, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runAdaptive(l int, label string, strategy catalog.Strategy, deltas []AdaptiveDelta) (AdaptiveResult, error) {
	c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex})
	if err != nil {
		return AdaptiveResult{}, err
	}
	defer c.Close()
	if err := loadAdaptive(c, strategy); err != nil {
		return AdaptiveResult{}, err
	}

	adaptive := strategy == catalog.StrategyAuto
	var picks map[string]int
	var view *catalog.View
	if adaptive {
		picks = map[string]int{}
		view, err = c.Catalog().View("jv")
		if err != nil {
			return AdaptiveResult{}, err
		}
	}
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rand.New(rand.NewSource(11)), 1.5, 1, uint64(adaptiveJoinValues-1))
	nextID := int64(2_000_000)
	tuples := 0
	res := AdaptiveResult{L: l, Strategy: label, Statements: len(deltas)}
	for _, d := range deltas {
		batch := adaptiveTuples(d, &nextID, rng, zipf)
		tuples += len(batch)
		if adaptive {
			s, err := c.ResolveStrategy(view, "a", len(batch))
			if err != nil {
				return AdaptiveResult{}, err
			}
			picks[s.String()]++
		}
		before := c.Metrics()
		if err := c.Insert("a", batch); err != nil {
			return AdaptiveResult{}, err
		}
		d := c.Metrics().Sub(before)
		res.TWIOs += d.TotalIOs()
		res.MaxNodeIOs += d.MaxNodeIOs()
	}
	m := c.Metrics()
	res.Tuples = tuples
	res.Messages = m.Net.Messages
	res.PlanCacheHits = m.Pipeline.PlanCacheHits
	res.PlanCacheMisses = m.Pipeline.PlanCacheMisses
	res.PlanCacheHitRate = m.Pipeline.HitRate()
	res.StagePages = map[string]int64{}
	for kind, sc := range m.Pipeline.Stages {
		res.StagePages[kind] = sc.Pages
	}
	res.Picks = picks
	return res, nil
}

// AdaptiveGrid formats the results.
func AdaptiveGrid(rs []AdaptiveResult) Grid {
	g := Grid{
		Title: "Adaptive strategy (extension): fixed methods vs the cost advisor over a mixed delta stream",
		Header: []string{"L", "method", "stmts", "tuples", "tw-ios", "maxnode-ios", "msgs",
			"cache hit%", "picks"},
	}
	for _, r := range rs {
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			r.Strategy,
			fmt.Sprintf("%d", r.Statements),
			fmt.Sprintf("%d", r.Tuples),
			fmt.Sprintf("%d", r.TWIOs),
			fmt.Sprintf("%d", r.MaxNodeIOs),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.1f", 100*r.PlanCacheHitRate),
			formatPicks(r.Picks),
		})
	}
	return g
}

func formatPicks(picks map[string]int) string {
	if len(picks) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(picks))
	for k := range picks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", k, picks[k])
	}
	return s
}

// AdaptiveCost runs the mixed stream once per method on an l-node cluster
// and reports each method's total workload, summed per-statement
// busiest-node I/Os and messages; for the adaptive run the last column
// counts how many statements the advisor resolved to each fixed method.
func AdaptiveCost(l, statements int) (Grid, error) {
	g := Grid{
		Title:  "Adaptive strategy (extension): fixed methods vs the cost advisor over a mixed delta stream",
		Header: []string{"L", "method", "stmts", "tuples", "tw-ios", "maxnode-ios", "msgs", "picks naive/AR/GI"},
	}
	fixed := []catalog.Strategy{catalog.StrategyNaive, catalog.StrategyAuxRel, catalog.StrategyGlobalIndex}
	for _, st := range AdaptiveStrategies() {
		c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex})
		if err != nil {
			return Grid{}, err
		}
		defer c.Close()
		if err := loadAdaptive(c, st.Strategy); err != nil {
			return Grid{}, err
		}
		view, err := c.Catalog().View("jv")
		if err != nil {
			return Grid{}, err
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
			if st.Strategy == catalog.StrategyAuto {
				s, err := c.ResolveStrategy(view, "a", len(batch))
				if err != nil {
					return Grid{}, err
				}
				picks[s]++
			}
			before := c.Metrics()
			if err := c.Insert("a", batch); err != nil {
				return Grid{}, fmt.Errorf("L=%d %s: %w", l, st.Label, err)
			}
			maxNode += c.Metrics().Sub(before).MaxNodeIOs()
		}
		m := c.Metrics()
		pickCell := "-"
		if st.Strategy == catalog.StrategyAuto {
			pickCell = fmt.Sprintf("%d/%d/%d", picks[fixed[0]], picks[fixed[1]], picks[fixed[2]])
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), st.Label, fmt.Sprint(statements), fmt.Sprint(tuples),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(maxNode), fmt.Sprint(m.Net.Messages), pickCell,
		})
	}
	return g, nil
}

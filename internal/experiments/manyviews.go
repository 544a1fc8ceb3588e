package experiments

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/node"
	"joinview/internal/types"
)

// The many-views experiment measures what the shared maintenance DAG buys
// when one base table feeds a large view population — the regime the
// paper's one-view-at-a-time evaluation never visits but real warehouses
// live in (per-analyst dashboards over the same fact tables). The schema
// is the TPC-R pair the paper's Teradata experiment uses: customer
// partitioned on custkey (the join attribute), orders partitioned on
// orderkey with a secondary index on custkey. V aggregate views join
// customer ⋈ orders on custkey, differing in their customer-side group
// columns but sharing the orders-side delta join. Every insert into
// customer therefore drives V maintenance plans whose chains are
// structurally identical: V independent pipelines would probe orders'
// auxiliary relation V times, the shared DAG probes it exactly once.

// Workload shape.
const (
	// manyViewsCustKeys is custkey's domain; orders carries manyViewsFanout
	// rows per custkey, so one inserted customer matches manyViewsFanout
	// orders — a deliberately heavy chain so probe cost, the shareable
	// part, dominates the per-view apply tail.
	manyViewsCustKeys = 160
	manyViewsFanout   = 64
)

// loadManyViewsSchema loads the TPC-R pair and nviews aggregate views over
// it.
func loadManyViewsSchema(c *cluster.Cluster, nviews int) error {
	if err := c.CreateTable(&catalog.Table{
		Name: "customer", Schema: intSchema("custkey", "nation", "acctbal"), PartitionCol: "custkey",
	}); err != nil {
		return err
	}
	if err := c.CreateTable(&catalog.Table{
		Name: "orders", Schema: intSchema("orderkey", "custkey", "totalprice"), PartitionCol: "orderkey",
		Indexes: []catalog.Index{{Name: "ix_orders_custkey", Col: "custkey"}},
	}); err != nil {
		return err
	}
	rows := make([]types.Tuple, 0, manyViewsCustKeys*manyViewsFanout)
	id := int64(0)
	for ck := int64(0); ck < manyViewsCustKeys; ck++ {
		for f := 0; f < manyViewsFanout; f++ {
			id++
			rows = append(rows, types.Tuple{types.Int(id), types.Int(ck), types.Int(100 + id%900)})
		}
	}
	if err := c.Insert("orders", rows); err != nil {
		return err
	}
	if err := c.RefreshStats("orders"); err != nil {
		return err
	}
	// The views differ in their customer-side group columns (three
	// families) but share the orders-side join — the sharable structure.
	for i := 0; i < nviews; i++ {
		out := []catalog.OutCol{{Table: "customer", Col: "custkey"}}
		switch i % 3 {
		case 1:
			out = append(out, catalog.OutCol{Table: "customer", Col: "nation"})
		case 2:
			out = append(out, catalog.OutCol{Table: "customer", Col: "acctbal"})
		}
		if err := c.CreateView(&catalog.View{
			Name:     fmt.Sprintf("jv_%03d", i),
			Tables:   []string{"customer", "orders"},
			Joins:    []catalog.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
			Out:      out,
			Aggs:     []catalog.AggSpec{{Func: "sum", Table: "orders", Col: "totalprice"}},
			Strategy: catalog.StrategyAuto,
		}); err != nil {
			return err
		}
	}
	c.ResetMetrics()
	return nil
}

// manyViewsStream inserts `statements` single customers with round-robin
// custkeys — each matching manyViewsFanout orders rows.
func manyViewsStream(c *cluster.Cluster, statements int) error {
	for s := 0; s < statements; s++ {
		tup := types.Tuple{
			types.Int(int64(s % manyViewsCustKeys)),
			types.Int(int64(s % 25)),
			types.Int(int64(1000 + s)),
		}
		if err := c.Insert("customer", []types.Tuple{tup}); err != nil {
			return err
		}
	}
	return nil
}

func pctSaved(base, shared int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(shared)/float64(base))
}

// ManyViews sweeps the view population on an l-node cluster: each V in
// counts runs the single-customer insert stream through the shared
// maintenance DAG and reports total workload, messages and the pages
// attributed to the shared delta-join pre-pass vs the per-view stages
// (exact under serial dispatch). The per-view columns are what V
// independent pipelines would cost, by arithmetic from a one-view run of
// the same stream: the non-view work once plus V times the view stage —
// the execution model the shared DAG replaced, whose seed goldens are the
// reference. "model tw" is Plan.SharedTW's prediction for the stream's
// delta-join chains.
func ManyViews(l, statements int, counts []int) (Grid, error) {
	g := Grid{
		Title: "Shared maintenance DAG (extension): V views over customer ⋈ orders, shared execution vs V independent pipelines",
		Header: []string{"L", "views", "stmts", "tw-ios", "tw-ios per-view", "tw saved%",
			"msgs", "msgs per-view", "msg saved%", "sharedjoin-pages", "view-pages", "model tw"},
	}
	one, _, err := manyViewsRun(l, 1, statements)
	if err != nil {
		return Grid{}, err
	}
	oneView := one.Pipeline.Stages["view"]
	for _, nv := range counts {
		m, model, err := manyViewsRun(l, nv, statements)
		if err != nil {
			return Grid{}, fmt.Errorf("views=%d: %w", nv, err)
		}
		perViewTW := one.TotalIOs() + int64(nv-1)*oneView.Pages
		perViewMsgs := one.Net.Messages + int64(nv-1)*oneView.Messages
		g.Rows = append(g.Rows, []string{
			fmt.Sprint(l), fmt.Sprint(nv), fmt.Sprint(statements),
			fmt.Sprint(m.TotalIOs()), fmt.Sprint(perViewTW), fmt.Sprintf("%.1f", pctSaved(perViewTW, m.TotalIOs())),
			fmt.Sprint(m.Net.Messages), fmt.Sprint(perViewMsgs), fmt.Sprintf("%.1f", pctSaved(perViewMsgs, m.Net.Messages)),
			fmt.Sprint(m.Pipeline.Stages["sharedjoin"].Pages), fmt.Sprint(m.Pipeline.Stages["view"].Pages),
			fmtF(model),
		})
	}
	return g, nil
}

// manyViewsRun loads nviews views, runs the stream and returns the
// stream's metrics with the modeled shared total workload of its
// delta-join chains.
func manyViewsRun(l, nviews, statements int) (cluster.Metrics, float64, error) {
	c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex})
	if err != nil {
		return cluster.Metrics{}, 0, err
	}
	defer c.Close()
	if err := loadManyViewsSchema(c, nviews); err != nil {
		return cluster.Metrics{}, 0, err
	}
	mp, err := mplan.Compile(c.Catalog(), c.Stats(), "customer", maintain.OpInsert)
	if err != nil {
		return cluster.Metrics{}, 0, err
	}
	perStmt, _ := mp.SharedTW(1)
	if err := manyViewsStream(c, statements); err != nil {
		return cluster.Metrics{}, 0, err
	}
	return c.Metrics(), perStmt * float64(statements), nil
}

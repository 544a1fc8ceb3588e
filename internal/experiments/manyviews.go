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
// structurally identical: the per-view baseline probes orders' auxiliary
// relation V times, the shared DAG exactly once.
//
// Both runs use identical clusters, data and statement streams; only
// DisablePlanSharing differs, so any delta is the executor's sharing.

// Workload shape.
const (
	// manyViewsCustKeys is custkey's domain; orders carries manyViewsFanout
	// rows per custkey, so one inserted customer matches manyViewsFanout
	// orders — a deliberately heavy chain so probe cost, the shareable
	// part, dominates the per-view apply tail.
	manyViewsCustKeys = 160
	manyViewsFanout   = 64
)

// ManyViewsResult is one (view count, execution mode) measurement.
type ManyViewsResult struct {
	L          int
	Views      int
	Shared     bool
	Statements int
	// TWIOs is the paper's total workload over the stream; Messages the
	// interconnect traffic.
	TWIOs    int64
	Messages int64
	// SharedJoinPages / ViewStagePages attribute the I/Os to the shared
	// delta-join pre-pass vs the per-view stages (serial dispatch is
	// exact).
	SharedJoinPages int64
	ViewStagePages  int64
}

// ManyViewsCounts is the default view-population axis.
var ManyViewsCounts = []int{1, 10, 25, 50, 100}

// LoadManyViewsSchema loads the TPC-R pair and nviews aggregate views over
// it — the shared-group population the many-views experiment and the
// shared-DAG CI benchmarks both drive.
func LoadManyViewsSchema(c *cluster.Cluster, nviews int) error {
	if err := c.CreateTable(&catalog.Table{
		Name: "customer",
		Schema: types.NewSchema(
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "nation", Kind: types.KindInt},
			types.Column{Name: "acctbal", Kind: types.KindInt},
		),
		PartitionCol: "custkey",
	}); err != nil {
		return err
	}
	if err := c.CreateTable(&catalog.Table{
		Name: "orders",
		Schema: types.NewSchema(
			types.Column{Name: "orderkey", Kind: types.KindInt},
			types.Column{Name: "custkey", Kind: types.KindInt},
			types.Column{Name: "totalprice", Kind: types.KindInt},
		),
		PartitionCol: "orderkey",
		Indexes:      []catalog.Index{{Name: "ix_orders_custkey", Col: "custkey"}},
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

func runManyViews(l, nviews, statements int, shared bool) (ManyViewsResult, error) {
	c, err := newCluster(cluster.Config{Nodes: l, Algo: node.AlgoIndex, DisablePlanSharing: !shared})
	if err != nil {
		return ManyViewsResult{}, err
	}
	defer c.Close()
	if err := LoadManyViewsSchema(c, nviews); err != nil {
		return ManyViewsResult{}, err
	}
	if err := manyViewsStream(c, statements); err != nil {
		return ManyViewsResult{}, err
	}
	m := c.Metrics()
	res := ManyViewsResult{
		L: l, Views: nviews, Shared: shared, Statements: statements,
		TWIOs:    m.TotalIOs(),
		Messages: m.Net.Messages,
	}
	if sc, ok := m.Pipeline.Stages["sharedjoin"]; ok {
		res.SharedJoinPages = sc.Pages
	}
	if vc, ok := m.Pipeline.Stages["view"]; ok {
		res.ViewStagePages = vc.Pages
	}
	return res, nil
}

// ManyViews sweeps the view-count axis on an l-node cluster, running each
// population once with the shared maintenance DAG and once with per-view
// execution (DisablePlanSharing), over an identical statement stream.
func ManyViews(l, statements int, counts []int) ([]ManyViewsResult, error) {
	var out []ManyViewsResult
	for _, nv := range counts {
		for _, shared := range []bool{false, true} {
			r, err := runManyViews(l, nv, statements, shared)
			if err != nil {
				return nil, fmt.Errorf("views=%d shared=%v: %w", nv, shared, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// ManyViewsGrid pairs each view count's baseline and shared runs and
// reports the sharing win.
func ManyViewsGrid(rs []ManyViewsResult) Grid {
	g := Grid{
		Title: "Shared maintenance DAG (extension): V views over customer ⋈ orders, per-view baseline vs shared execution",
		Header: []string{"L", "views", "stmts", "tw-ios base", "tw-ios shared", "tw saved%",
			"msgs base", "msgs shared", "msg saved%", "sharedjoin-pages", "view-pages shared"},
	}
	base := map[int]ManyViewsResult{}
	for _, r := range rs {
		if !r.Shared {
			base[r.Views] = r
		}
	}
	for _, r := range rs {
		if !r.Shared {
			continue
		}
		b, ok := base[r.Views]
		if !ok {
			continue
		}
		g.Rows = append(g.Rows, []string{
			fmt.Sprintf("%d", r.L),
			fmt.Sprintf("%d", r.Views),
			fmt.Sprintf("%d", r.Statements),
			fmt.Sprintf("%d", b.TWIOs),
			fmt.Sprintf("%d", r.TWIOs),
			fmt.Sprintf("%.1f", pctSaved(b.TWIOs, r.TWIOs)),
			fmt.Sprintf("%d", b.Messages),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.1f", pctSaved(b.Messages, r.Messages)),
			fmt.Sprintf("%d", r.SharedJoinPages),
			fmt.Sprintf("%d", r.ViewStagePages),
		})
	}
	return g
}

func pctSaved(base, shared int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(shared)/float64(base))
}

// ManyViewsCost sweeps the view population on an l-node cluster: each V in
// counts runs the single-customer insert stream through the shared
// maintenance DAG and reports total workload, messages and the pages
// attributed to the shared delta-join pre-pass vs the per-view stages
// (exact under serial dispatch). The per-view columns are what V
// independent pipelines would cost, by arithmetic from a one-view run of
// the same stream: the non-view work once plus V times the view stage —
// the execution model the shared DAG replaced, whose seed goldens are the
// reference. "model tw" is Plan.SharedTW's prediction for the stream's
// delta-join chains.
func ManyViewsCost(l, statements int, counts []int) (Grid, error) {
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
	if err := LoadManyViewsSchema(c, nviews); err != nil {
		return cluster.Metrics{}, 0, err
	}
	mp, err := mplan.Compile(c.Catalog(), c.Stats(), "customer", maintain.OpInsert)
	if err != nil {
		return cluster.Metrics{}, 0, err
	}
	perStmt, _ := mp.SharedTW(l, 1)
	if err := manyViewsStream(c, statements); err != nil {
		return cluster.Metrics{}, 0, err
	}
	return c.Metrics(), perStmt * float64(statements), nil
}

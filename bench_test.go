package joinview

// Ablation benchmarks DESIGN.md calls out and no golden grid pins: the
// paper's own metric (total workload in §3.1 cost units) is attached via
// b.ReportMetric as "tw-ios/op" next to testing.B's wall-clock. The
// paper's tables and figures are golden grids (internal/experiments,
// cmd/jvbench); end-to-end wall-clock is the benchmark harness (bench/).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/plan"
	"joinview/internal/types"
	"joinview/internal/workload"
)

// BenchmarkAggregateView compares maintaining an aggregate join view
// (count/sum per group — the authors' companion work) against a plain
// join view over the same join: the aggregate view folds each delta into
// one group row instead of writing N join rows.
func BenchmarkAggregateView(b *testing.B) {
	run := func(b *testing.B, aggregate bool) {
		c, err := cluster.New(cluster.Config{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		spec := workload.TPCR{Customers: 500}.Defaulted()
		if err := spec.Load(c); err != nil {
			b.Fatal(err)
		}
		v := &catalog.View{
			Name:   "v",
			Tables: []string{"customer", "orders"},
			Joins: []catalog.JoinPred{
				{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			},
			Out:            []catalog.OutCol{{Table: "customer", Col: "custkey"}},
			PartitionTable: "customer", PartitionCol: "custkey",
			Strategy: catalog.StrategyAuxRel,
		}
		if aggregate {
			v.Aggs = []catalog.AggSpec{
				{Func: "count"},
				{Func: "sum", Table: "orders", Col: "totalprice"},
			}
		} else {
			v.Out = append(v.Out,
				catalog.OutCol{Table: "orders", Col: "orderkey"},
				catalog.OutCol{Table: "orders", Col: "totalprice"})
		}
		if err := c.CreateView(v); err != nil {
			b.Fatal(err)
		}
		c.ResetMetrics()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok := int64(1_000_000 + i)
			if err := c.Insert("orders", []types.Tuple{workload.Order(ok, ok%int64(spec.Customers))}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Metrics().TotalIOs())/float64(b.N), "tw-ios/op")
		rep, err := c.StorageReport()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.RowsOf("v")), "view-rows")
	}
	b.Run("plain-join-view", func(b *testing.B) { run(b, false) })
	b.Run("aggregate-view", func(b *testing.B) { run(b, true) })
}

// BenchmarkViewVsJoinQuery quantifies why warehouses materialize: reading
// the maintained view vs recomputing the join with QueryJoin (metered
// scans of both tables, joined at the coordinator), same result set.
func BenchmarkViewVsJoinQuery(b *testing.B) {
	querySpec := cluster.QuerySpec{
		Tables: []string{"customer", "orders"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
		},
	}
	setup := func(b *testing.B) *cluster.Cluster {
		b.Helper()
		c, err := cluster.New(cluster.Config{Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		spec := workload.TPCR{Customers: 1500}.Defaulted()
		if err := spec.Load(c); err != nil {
			b.Fatal(err)
		}
		if err := c.CreateView(&catalog.View{
			Name:   "jv1",
			Tables: querySpec.Tables,
			Joins:  querySpec.Joins,
			Out: []catalog.OutCol{
				{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
				{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
			},
			PartitionTable: "customer", PartitionCol: "custkey",
			Strategy: catalog.StrategyAuxRel,
		}); err != nil {
			b.Fatal(err)
		}
		c.ResetMetrics()
		return c
	}
	b.Run("scan-view", func(b *testing.B) {
		c := setup(b)
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ScanFragmentMetered("jv1"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Metrics().TotalIOs())/float64(b.N), "tw-ios/op")
	})
	b.Run("join-query", func(b *testing.B) {
		c := setup(b)
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.QueryJoin(querySpec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Metrics().TotalIOs())/float64(b.N), "tw-ios/op")
	})
}

// --- Ablation benchmarks (DESIGN.md) ---

// BenchmarkTransports compares the deterministic direct transport against
// the goroutine-per-node channel transport on the same maintenance stream:
// identical logical I/O, different wall-clock.
func BenchmarkTransports(b *testing.B) {
	for _, useChan := range []bool{false, true} {
		name := "direct"
		if useChan {
			name = "channels"
		}
		b.Run(name, func(b *testing.B) {
			c, err := cluster.New(cluster.Config{Nodes: 8, UseChannels: useChan})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			spec := workload.TwoRel{JoinValues: 640, Fanout: 10}
			if err := spec.Load(c, catalog.StrategyAuxRel); err != nil {
				b.Fatal(err)
			}
			delta := spec.AInserts(b.N, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Insert("a", delta[i:i+1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Metrics().TotalIOs())/float64(b.N), "tw-ios/op")
		})
	}
}

// BenchmarkMultiwayPlanChoice compares the statistics-driven maintenance
// join order against the worst order for a 3-way view where one join has
// fan-out 1 ("zlean") and the other fan-out 16 ("awide"); table names are
// chosen so the statistics-free tie-break picks the bad order.
func BenchmarkMultiwayPlanChoice(b *testing.B) {
	setup := func(b *testing.B) *cluster.Cluster {
		b.Helper()
		c, err := cluster.New(cluster.Config{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		mk := func(name string, cols ...string) *catalog.Table {
			var cc []types.Column
			for _, col := range cols {
				cc = append(cc, types.Column{Name: col, Kind: types.KindInt})
			}
			return &catalog.Table{Name: name, Schema: types.NewSchema(cc...), PartitionCol: cols[0]}
		}
		for _, t := range []*catalog.Table{
			mk("mid", "pk", "lo", "hi"),
			mk("zlean", "pk", "lo"),
			mk("awide", "pk", "hi"),
		} {
			if err := c.CreateTable(t); err != nil {
				b.Fatal(err)
			}
		}
		var narrow, wide []types.Tuple
		for i := int64(0); i < 400; i++ {
			narrow = append(narrow, types.Tuple{types.Int(i), types.Int(i % 400)}) // fan-out 1
		}
		for i := int64(0); i < 1600; i++ {
			wide = append(wide, types.Tuple{types.Int(i), types.Int(i % 100)}) // fan-out 16
		}
		if err := c.Insert("zlean", narrow); err != nil {
			b.Fatal(err)
		}
		if err := c.Insert("awide", wide); err != nil {
			b.Fatal(err)
		}
		v := &catalog.View{
			Name:   "w",
			Tables: []string{"mid", "zlean", "awide"},
			Joins: []catalog.JoinPred{
				{Left: "mid", LeftCol: "lo", Right: "zlean", RightCol: "lo"},
				{Left: "mid", LeftCol: "hi", Right: "awide", RightCol: "hi"},
			},
			PartitionTable: "mid", PartitionCol: "pk",
			Strategy: catalog.StrategyAuxRel,
		}
		if err := c.CreateView(v); err != nil {
			b.Fatal(err)
		}
		c.ResetMetrics()
		return c
	}
	delta := func(n int) []types.Tuple {
		out := make([]types.Tuple, n)
		for i := range out {
			out[i] = types.Tuple{types.Int(int64(10000 + i)), types.Int(int64(i % 400)), types.Int(int64(i % 100))}
		}
		return out
	}
	b.Run("stats-optimized", func(b *testing.B) {
		c := setup(b)
		defer c.Close()
		for _, t := range []string{"zlean", "awide"} {
			if err := c.RefreshStats(t); err != nil {
				b.Fatal(err)
			}
		}
		v, _ := c.Catalog().View("w")
		p, err := plan.Build(c.Catalog(), c.Stats(), v, "mid", catalog.StrategyAuxRel)
		if err != nil {
			b.Fatal(err)
		}
		if p.Steps[0].Table != "zlean" {
			b.Fatalf("optimizer picked %s first", p.Steps[0].Table)
		}
		benchInsert(b, c, delta)
	})
	b.Run("no-stats", func(b *testing.B) {
		c := setup(b)
		defer c.Close()
		benchInsert(b, c, delta)
	})
}

func benchInsert(b *testing.B, c *cluster.Cluster, delta func(int) []types.Tuple) {
	b.Helper()
	before := c.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Insert("mid", delta(8)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := c.Metrics().Sub(before)
	b.ReportMetric(float64(d.TotalIOs())/float64(b.N), "tw-ios/op")
}

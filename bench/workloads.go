package main

import (
	"fmt"
	"time"

	"joinview"
	"joinview/internal/catalog"
)

// nodes is the cluster size L of every workload.
const nodes = 4

// workload is one benchmark workload: engine configuration, schema, the
// writers' operation streams and the reader's schedule.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// why it exists.
	name     string
	opts     joinview.Options
	suffixes []string // one customer/orders table pair per suffix
	lineitem bool
	views    func(suffix string) []*joinview.View
	// writers is the number of closed-loop writer sessions; newGen builds
	// session s's stream.
	writers int
	newGen  func(sc scale, seed int64, session int) generator
	// primeOps statements of session 0's stream run during set-up.
	primeOps int
	// warmOps write statements run untimed before anything is measured;
	// countOps more, without the reader, are the counting phase the
	// logical-cost metrics come from. Both are statement counts, not
	// durations, so that the counted statements are the same ones, on the
	// same state, in every run of a seed.
	warmOps, countOps int
	// procs, when > 0, is the workload's GOMAXPROCS.
	procs int
	// readRate is the open-loop reader's reads per second (0: no reader
	// goroutine, the stream carries in-line reads); read performs the i-th
	// read and returns its row count and, for watermark reads, the lag it
	// observed.
	readRate float64
	read     func(db *joinview.DB, i int) (rows int, lag time.Duration, err error)
	// flushAtEnd drains the async queue inside the timed window.
	flushAtEnd bool
	// crashStmts > 0 runs the crash / failover / recover epilogue with
	// that many statements issued while node 1 is down.
	crashStmts int
	// siblings are groups of views that must be bag-equal to each other.
	siblings [][]string
	// probes are the workload-independent isolated probes the traced pass
	// runs under this workload: those of the layers predicted to move its
	// end-to-end metrics. Each probe belongs to one workload.
	probes []probe
}

func viewRows(name string) func(*joinview.DB, int) (int, time.Duration, error) {
	return func(db *joinview.DB, _ int) (int, time.Duration, error) {
		rows, err := db.ViewRows(name)
		return len(rows), 0, err
	}
}

// jv1 is the paper's JV1 = customer ⋈ orders on custkey, partitioned on
// customer.custkey, pinned to one maintenance method.
func jv1(suffix, tag string, st joinview.Strategy) *joinview.View {
	c, o := "customer"+suffix, "orders"+suffix
	return &joinview.View{
		Name:   "jv1" + suffix + "_" + tag,
		Tables: []string{c, o},
		Joins:  []joinview.JoinPred{{Left: c, LeftCol: "custkey", Right: o, RightCol: "custkey"}},
		Out: []joinview.OutCol{
			{Table: c, Col: "custkey"}, {Table: c, Col: "acctbal"},
			{Table: o, Col: "orderkey"}, {Table: o, Col: "totalprice"},
		},
		PartitionTable: c, PartitionCol: "custkey",
		Strategy: st,
	}
}

// siblingViews are the paper's three methods on one stream.
func siblingViews(suffix string) []*joinview.View {
	return []*joinview.View{
		jv1(suffix, "ar", joinview.StrategyAuxRel),
		jv1(suffix, "gi", joinview.StrategyGlobalIndex),
		jv1(suffix, "nv", joinview.StrategyNaive),
	}
}

func siblingNames(suffix string) []string {
	return []string{"jv1" + suffix + "_ar", "jv1" + suffix + "_gi", "jv1" + suffix + "_nv"}
}

// aggView is sum(orders.totalprice) + count over customer ⋈ orders grouped
// by the given customer columns.
func aggView(name, suffix string, st joinview.Strategy, groupBy ...string) *joinview.View {
	c, o := "customer"+suffix, "orders"+suffix
	v := &joinview.View{
		Name:     name,
		Tables:   []string{c, o},
		Joins:    []joinview.JoinPred{{Left: c, LeftCol: "custkey", Right: o, RightCol: "custkey"}},
		Aggs:     []catalog.AggSpec{{Func: "sum", Table: o, Col: "totalprice"}},
		Strategy: st,
	}
	for _, col := range groupBy {
		v.Out = append(v.Out, joinview.OutCol{Table: c, Col: col})
	}
	return v
}

// jv3 is the 3-way view customer ⋈ orders ⋈ lineitem.
func jv3(tag string, st joinview.Strategy) *joinview.View {
	return &joinview.View{
		Name:   "jv3_" + tag,
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []joinview.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []joinview.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "orders", Col: "orderkey"},
			{Table: "lineitem", Col: "partkey"}, {Table: "lineitem", Col: "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: st,
	}
}

// manyViews is how many aggregate views async-manyviews-chan maintains.
const manyViews = 16

var workloads = []*workload{
	{
		name:     "trickle-tcp",
		opts:     joinview.Options{Nodes: nodes, UseTCP: true},
		suffixes: []string{""},
		views: func(s string) []*joinview.View {
			return append(siblingViews(s), aggView("agg_nation", s, joinview.StrategyAuxRel, "nation"))
		},
		writers: 1,
		newGen: func(sc scale, seed int64, _ int) generator {
			return newPairGen(sc, seed, "", 0, 0)
		},
		warmOps: 1500, countOps: 8000,
		// One core. A closed-loop writer waits for every reply, so nothing
		// here can use a second core, and on two the request/response
		// hand-off between OS threads is the largest run-to-run noise there
		// is (p50 +-6 % against +-2 % on one core).
		procs:    1,
		readRate: 50,
		read:     viewRows("agg_nation"),
		siblings: [][]string{siblingNames("")},
		probes:   []probe{{"types (gob)", prober.gob}},
	},
	{
		name:     "bulk-scan-chan",
		opts:     joinview.Options{Nodes: nodes, UseChannels: true, BufferPages: 256},
		suffixes: []string{""},
		lineitem: true,
		views: func(s string) []*joinview.View {
			return []*joinview.View{
				jv1(s, "nv", joinview.StrategyNaive),
				jv3("ar", joinview.StrategyAuxRel),
				jv3("gi", joinview.StrategyGlobalIndex),
			}
		},
		writers:  1,
		newGen:   func(sc scale, seed int64, _ int) generator { return newBulkGen(sc, seed) },
		primeOps: (1 + bulkLines) * bulkKeep,
		warmOps:  2 * bulkRound, countOps: 12 * bulkRound,
		readRate: 12,
		// two ad-hoc joins, then one full snapshot scan of the 3-way view.
		// The join re-partitions both tables through the nodes while they
		// apply the writer's batches and takes 20 to 100 ms; the scan takes
		// 2 to 15 ms. At one join to two scans the median read sat on the
		// edge between the two kinds and moved +-20 % from run to run; at
		// 2:1 it is a join, and the scans are the fast third.
		read: func(db *joinview.DB, i int) (int, time.Duration, error) {
			if i%3 == 2 {
				rows, err := db.ViewRows("jv3_ar")
				return len(rows), 0, err
			}
			rows, _, err := db.QueryJoin(joinview.QuerySpec{
				Tables: []string{"customer", "orders"},
				Joins:  []joinview.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
			})
			return len(rows), 0, err
		},
		siblings: [][]string{{"jv3_ar", "jv3_gi"}},
		probes: []probe{
			{"btree", prober.btree}, {"storage", prober.storage}, {"gindex", prober.gindex},
			{"hashpart/types", prober.hashpartTypes},
		},
	},
	{
		name:     "keyed-oltp-direct",
		opts:     joinview.Options{Nodes: nodes, BufferPages: 4096},
		suffixes: []string{""},
		views:    siblingViews,
		writers:  1,
		newGen:   func(sc scale, seed int64, _ int) generator { return newKeyedGen(sc, seed, 16) },
		warmOps:  200, countOps: 500,
		read:     viewRows("jv1_ar"),
		siblings: [][]string{siblingNames("")},
		probes:   []probe{{"node", prober.node}},
	},
	{
		name: "durable-rf2-chan",
		opts: joinview.Options{
			Nodes: nodes, UseChannels: true,
			Durability: true, ReplicationFactor: 2, CheckpointEvery: 2000,
		},
		suffixes: []string{"", "_b"},
		views: func(s string) []*joinview.View {
			vs := siblingViews(s)
			if s == "" {
				vs = append(vs, aggView("agg_nation", s, joinview.StrategyAuxRel, "nation"))
			}
			return vs
		},
		writers: 2,
		newGen: func(sc scale, seed int64, session int) generator {
			return newPairGen(sc, seed+int64(session)*7919, []string{"", "_b"}[session], 8, 32)
		},
		warmOps: 1000, countOps: 2000,
		// in-line reads, not an open-loop reader: under Durability a read
		// takes the global lock, and a paced reader's latency is then
		// whichever of the two sessions' statements it happened to queue
		// behind (p50 0.1 to 2.5 ms from run to run)
		read:       viewRows("agg_nation"),
		crashStmts: 200,
		siblings:   [][]string{siblingNames(""), siblingNames("_b")},
		probes:     []probe{{"wal", prober.wal}, {"lockmgr", prober.lockmgr}},
	},
	{
		name:     "async-manyviews-chan",
		opts:     joinview.Options{Nodes: nodes, UseChannels: true, AsyncMaintenance: true, EpochSize: 64},
		suffixes: []string{""},
		views: func(s string) []*joinview.View {
			var vs []*joinview.View
			for i := 0; i < manyViews; i++ {
				groupBy := []string{"custkey"}
				switch i % 3 {
				case 1:
					groupBy = append(groupBy, "nation")
				case 2:
					groupBy = append(groupBy, "acctbal")
				}
				vs = append(vs, aggView(fmt.Sprintf("jv_%03d", i), s, joinview.StrategyAuto, groupBy...))
			}
			return vs
		},
		writers: 1,
		newGen:  func(sc scale, seed int64, _ int) generator { return newAsyncGen(sc, seed) },
		warmOps: 1500, countOps: 30 * flushEpoch,
		readRate: 25,
		read: func(db *joinview.DB, _ int) (int, time.Duration, error) {
			rows, wm, err := db.ReadView("jv_000", joinview.ReadAtWatermark)
			return len(rows), wm.Lag, err
		},
		flushAtEnd: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func customerTable(suffix string) *joinview.Table {
	return &joinview.Table{
		Name: "customer" + suffix,
		Schema: joinview.NewSchema(
			joinview.Column{Name: "custkey", Kind: joinview.KindInt},
			joinview.Column{Name: "nation", Kind: joinview.KindInt},
			joinview.Column{Name: "acctbal", Kind: joinview.KindFloat},
		),
		PartitionCol: "custkey",
	}
}

func ordersTable(suffix string) *joinview.Table {
	return &joinview.Table{
		Name: "orders" + suffix,
		Schema: joinview.NewSchema(
			joinview.Column{Name: "orderkey", Kind: joinview.KindInt},
			joinview.Column{Name: "custkey", Kind: joinview.KindInt},
			joinview.Column{Name: "totalprice", Kind: joinview.KindFloat},
		),
		PartitionCol: "orderkey",
		Indexes:      []joinview.Index{{Name: "ix_orders" + suffix + "_custkey", Col: "custkey"}},
	}
}

func lineitemTable() *joinview.Table {
	return &joinview.Table{
		Name: "lineitem",
		Schema: joinview.NewSchema(
			joinview.Column{Name: "orderkey", Kind: joinview.KindInt},
			joinview.Column{Name: "partkey", Kind: joinview.KindInt},
			joinview.Column{Name: "suppkey", Kind: joinview.KindInt},
			joinview.Column{Name: "extendedprice", Kind: joinview.KindFloat},
			joinview.Column{Name: "discount", Kind: joinview.KindFloat},
		),
		PartitionCol: "partkey",
		Indexes:      []joinview.Index{{Name: "ix_lineitem_orderkey", Col: "orderkey"}},
	}
}

// viewNames lists every view of the workload's catalog.
func (w *workload) viewNames() []string {
	var out []string
	for _, s := range w.suffixes {
		for _, v := range w.views(s) {
			out = append(out, v.Name)
		}
	}
	return out
}

// baseTables lists the workload's base tables.
func (w *workload) baseTables() []string {
	var out []string
	for _, s := range w.suffixes {
		out = append(out, "customer"+s, "orders"+s)
	}
	if w.lineitem {
		out = append(out, "lineitem")
	}
	return out
}

// setUp opens a database with opts (the workload's own, or a tax replay's
// variant), loads the data set, creates and backfills the views and runs
// the priming statements. gens are the writers' generators; priming
// advances session 0's.
func (w *workload) setUp(opts joinview.Options, sc scale, gens []generator) (*joinview.DB, error) {
	db, err := joinview.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := w.load(db, sc, gens); err != nil {
		db.Close()
		return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	return db, nil
}

func (w *workload) load(db *joinview.DB, sc scale, gens []generator) error {
	customers, orders, lineitems := sc.baseRows(w.lineitem)
	for _, s := range w.suffixes {
		if err := db.CreateTable(customerTable(s)); err != nil {
			return err
		}
		if err := db.CreateTable(ordersTable(s)); err != nil {
			return err
		}
		if err := db.Insert("customer"+s, customers); err != nil {
			return err
		}
		if err := db.Insert("orders"+s, orders); err != nil {
			return err
		}
	}
	if w.lineitem {
		if err := db.CreateTable(lineitemTable()); err != nil {
			return err
		}
		if err := db.Insert("lineitem", lineitems); err != nil {
			return err
		}
	}
	// the loading inserts are deferred statements under AsyncMaintenance
	if err := db.Flush(); err != nil {
		return err
	}
	for _, t := range w.baseTables() {
		if err := db.RefreshStats(t); err != nil {
			return err
		}
	}
	for _, s := range w.suffixes {
		for _, v := range w.views(s) {
			if err := db.CreateView(v); err != nil {
				return err
			}
		}
	}
	x := executor{db: db}
	for i := 0; i < w.primeOps; i++ {
		o := gens[0].next()
		if _, err := x.exec(&o); err != nil {
			return err
		}
		gens[0].ack(&o)
	}
	return db.Flush()
}

// scaledOps shrinks a statement count with the data set, for the smoke
// test; at the benchmark's own scale it is n.
func scaledOps(n int, factor float64) int {
	if factor >= 1 {
		return n
	}
	if n = int(float64(n) * factor * 10); n < 10 {
		n = 10
	}
	return n
}

// warm is the untimed warm-up phase: plan cache, connection pool, heap
// growth.
func (w *workload) warm(p runParams, noReader bool) phaseSpec {
	return phaseSpec{ops: scaledOps(w.warmOps, p.scale), flush: w.flushAtEnd, noReader: noReader}
}

// count is the counting phase: a fixed number of statements by the writers
// alone, so that no metered read is charged to them. Under
// AsyncMaintenance the writer flushes every flushEpoch statements, one
// short of the depth that wakes the background flusher: which statements
// share an epoch decides what compaction cancels and what the epoch
// sends, and left to the flusher's timing the counts moved by 0.5 %
// between runs of one seed.
func (w *workload) count(p runParams) phaseSpec {
	spec := phaseSpec{ops: scaledOps(w.countOps, p.scale), flush: w.flushAtEnd, noReader: true}
	if w.opts.AsyncMaintenance {
		spec.flushEvery = flushEpoch
	}
	return spec
}

// newGens builds one generator per writer session.
func (w *workload) newGens(sc scale, seed int64) []generator {
	gens := make([]generator, w.writers)
	for s := range gens {
		gens[s] = w.newGen(sc, seed, s)
	}
	return gens
}

package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"joinview"
	"joinview/internal/btree"
	"joinview/internal/gindex"
	"joinview/internal/hashpart"
	"joinview/internal/lockmgr"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// The isolated layer probes time each module's exported functions on
// instances the benchmark builds itself, fed rows from the workload
// generator, at fixed iteration counts. They never touch the measured
// database, so the meters they charge are their own.

const (
	probeRounds = 5     // each probe reports the median of this many rounds
	probeIters  = 20000 // calls per round for nanosecond-scale functions
)

// prober sizes the probes: the benchmark runs {probeRounds, 1}, the smoke
// test fewer rounds of div times fewer calls (it checks that the probes
// run, not what they read).
type prober struct {
	rounds int
	div    int
}

// perCall runs fn iters times per round and returns the median round's
// nanoseconds per call. fn's argument counts calls across rounds.
func (pr prober) perCall(iters int, fn func(i int)) float64 {
	if iters /= pr.div; iters < 1 {
		iters = 1
	}
	rounds := make([]float64, pr.rounds)
	n := 0
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(n)
			n++
		}
		rounds[r] = float64(time.Since(t0)) / float64(iters)
	}
	return medianF(rounds)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probeRows are generator-made rows the probes feed the layers.
type probeRows struct {
	sc      scale
	orders  []joinview.Tuple // loaded orders
	fresh   []joinview.Tuple // orders beyond the loaded key range, custkey = orderkey
	schema  *joinview.Schema
	custIdx int
}

func newProbeRows(sc scale, seed int64) *probeRows {
	_, orders, _ := sc.baseRows(false)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(orders), func(i, j int) { orders[i], orders[j] = orders[j], orders[i] })
	p := &probeRows{sc: sc, orders: orders, schema: ordersTable("").Schema, custIdx: 1}
	for i := 0; i < probeRounds*probeIters; i++ {
		k := sc.orders + int64(i)
		p.fresh = append(p.fresh, orderRow(k, k, rng.Int63n(5000)))
	}
	return p
}

// probe is one isolated probe stage, named after the layer it times.
type probe struct {
	layer string
	run   func(pr prober, m map[string]float64, p *probeRows) error
}

// layerProbes runs the workload's isolated probes and stores the results
// in m. What a probe of btree, storage, gindex, wal, lockmgr, hashpart,
// types or node reads depends on the seed and not on the workload, so each
// of them runs under one workload only, the one whose end-to-end metrics
// its layer is predicted to move (workload.probes), and reads 0 under the
// others. The mplan/maintain and transport probes depend on the workload's
// catalog and transport and run under every workload. It returns the idle
// transport's ping in microseconds.
func (pr prober) layerProbes(m map[string]float64, sc scale, seed int64, db *joinview.DB, w *workload) (pingUs float64, err error) {
	p := newProbeRows(sc, seed)
	for _, pb := range w.probes {
		if err := pb.run(pr, m, p); err != nil {
			return 0, fmt.Errorf("%s probe: %w", pb.layer, err)
		}
	}
	if err := pr.mplanMaintain(m, db, w); err != nil {
		return 0, fmt.Errorf("mplan/maintain probe: %w", err)
	}
	if pingUs, err = pr.transport(m, p, w); err != nil {
		return 0, fmt.Errorf("transport probe: %w", err)
	}
	return pingUs, nil
}

func (pr prober) btree(m map[string]float64, p *probeRows) error {
	t := btree.New()
	keys := make([][]byte, 0, len(p.fresh))
	for _, r := range p.fresh {
		keys = append(keys, types.EncodeKey(r[0]))
	}
	m["btree.insert_ns"] = pr.perCall(probeIters, func(i int) { t.Insert(keys[i], keys[i]) })
	m["btree.get_ns"] = pr.perCall(probeIters, func(i int) { sink += len(t.Get(keys[i])) })
	return nil
}

func (pr prober) storage(m map[string]float64, p *probeRows) error {
	f, err := storage.NewFragment(p.schema, storage.Config{Name: "orders"})
	if err != nil {
		return err
	}
	if err := f.CreateIndex("ix_custkey", "custkey"); err != nil {
		return err
	}
	ids := make([]storage.RowID, len(p.fresh))
	var insErr error
	m["storage.insert_ns"] = pr.perCall(probeIters, func(i int) {
		if ids[i], err = f.Insert(p.fresh[i]); err != nil {
			insErr = err
		}
	})
	if insErr != nil {
		return insErr
	}
	m["storage.lookup_ns"] = pr.perCall(probeIters, func(i int) {
		ms, _, err := f.LookupEqual("custkey", p.fresh[i][p.custIdx])
		if err != nil {
			insErr = err
		}
		sink += len(ms)
	})
	if insErr != nil {
		return insErr
	}
	m["storage.delete_ns"] = pr.perCall(probeIters, func(i int) {
		if _, ok := f.Delete(ids[i]); ok {
			sink++
		}
	})

	// a fragment of one node's share of orders at epoch 1, then one batch
	// stamped epoch 2: scanning at epoch 1 has to invert that suffix
	snap, err := storage.NewFragment(p.schema, storage.Config{Name: "orders"})
	if err != nil {
		return err
	}
	share := len(p.orders) / nodes
	for _, r := range p.orders[:share] {
		if _, err := snap.InsertEpoch(r, 1); err != nil {
			return err
		}
	}
	for _, r := range p.fresh[:batchRows] {
		if _, err := snap.InsertEpoch(r, 2); err != nil {
			return err
		}
	}
	m["storage.snapshot_scan_us"] = pr.perCall(20, func(int) {
		snap.SnapshotScan(1, func(storage.RowID, types.Tuple) bool { sink++; return true })
	}) / 1e3
	return nil
}

func (pr prober) gindex(m map[string]float64, p *probeRows) error {
	g := gindex.New(&storage.Meter{}, false)
	m["gindex.insert_ns"] = pr.perCall(probeIters, func(i int) {
		g.Insert(p.fresh[i][p.custIdx], storage.GlobalRowID{Node: int32(i % nodes), Row: storage.RowID(i)})
	})
	m["gindex.lookup_ns"] = pr.perCall(probeIters, func(i int) { sink += len(g.Lookup(p.fresh[i][p.custIdx])) })
	return nil
}

func (pr prober) wal(m map[string]float64, p *probeRows) error {
	l := wal.NewLog(&storage.Meter{}, 10)
	m["wal.append_ns"] = pr.perCall(probeIters, func(i int) {
		l.Append(wal.Record{Kind: wal.KindRedo, TID: uint64(i), Seq: uint64(i), Req: node.Insert{Frag: "orders", Tuples: p.fresh[i : i+1]}})
	})
	// each force follows one append, as a statement's does; the append is
	// timed too and subtracted
	both := pr.perCall(probeIters, func(i int) {
		l.Append(wal.Record{Kind: wal.KindCommit, TID: uint64(i)})
		l.Force()
	})
	bare := pr.perCall(probeIters, func(i int) { l.Append(wal.Record{Kind: wal.KindCommit, TID: uint64(i)}) })
	m["wal.force_ns"] = both - bare
	if m["wal.force_ns"] < 0 {
		m["wal.force_ns"] = 0
	}
	return nil
}

func (pr prober) lockmgr(m map[string]float64, _ *probeRows) error {
	mgr := lockmgr.New()
	m["lockmgr.acquire_ns"] = pr.perCall(probeIters, func(int) {
		h := mgr.AcquireShared()
		h.Lock(lockmgr.S("customer"), lockmgr.X("orders"), lockmgr.X("jv1_ar"))
		h.Release()
	})
	return nil
}

func (pr prober) hashpartTypes(m map[string]float64, p *probeRows) error {
	part := hashpart.New(nodes)
	var err error
	m["hashpart.spread_ns_per_row"] = pr.perCall(200, func(i int) {
		lo := (i * batchRows) % (len(p.fresh) - batchRows)
		out, e := part.Spread(p.schema, "custkey", p.fresh[lo:lo+batchRows])
		if e != nil {
			err = e
		}
		sink += len(out)
	}) / batchRows
	if err != nil {
		return err
	}

	var buf []byte
	m["types.encode_ns_per_row"] = pr.perCall(probeIters, func(i int) { buf = types.AppendTuple(buf[:0], p.fresh[i]) })
	m["types.bytes_per_row"] = float64(len(buf))
	m["types.decode_ns_per_row"] = pr.perCall(probeIters, func(int) {
		t, _, e := types.DecodeTuple(buf)
		if e != nil {
			err = e
		}
		sink += len(t)
	})
	return err
}

// gob ships the rows as the TCP transport does: a node.Insert through one
// long-lived gob stream, so type descriptors are paid once.
func (pr prober) gob(m map[string]float64, p *probeRows) error {
	var err error
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	roundTrip := func(i int) int {
		lo := (i * miniBatchRows) % (len(p.fresh) - miniBatchRows)
		if e := enc.Encode(node.Insert{Frag: "orders", Tuples: p.fresh[lo : lo+miniBatchRows]}); e != nil {
			err = e
		}
		n := wire.Len()
		var back node.Insert
		if e := dec.Decode(&back); e != nil {
			err = e
		}
		sink += len(back.Tuples)
		return n
	}
	roundTrip(0)
	m["types.gob_bytes_per_row"] = float64(roundTrip(1)) / miniBatchRows
	m["types.gob_ns_per_row"] = pr.perCall(2000, func(i int) { roundTrip(i) }) / miniBatchRows
	return err
}

func (pr prober) node(m map[string]float64, p *probeRows) error {
	n := node.New(0, 10)
	share := len(p.orders) / nodes
	for _, req := range []any{
		node.CreateFragment{Name: "orders", Schema: p.schema, PageRows: 10},
		node.CreateIndex{Frag: "orders", Name: "ix_custkey", Col: "custkey"},
		node.Insert{Frag: "orders", Tuples: p.orders[:share], Unmetered: true},
	} {
		if _, err := n.Handle(req); err != nil {
			return err
		}
	}
	var err error
	handle := func(req any) {
		if _, e := n.Handle(req); e != nil {
			err = e
		}
	}
	// a delta of 16 customers, each matching the order of the same key
	delta := make([]joinview.Tuple, miniBatchRows)
	m["node.handle_probe_us"] = pr.perCall(2000, func(i int) {
		for j := range delta {
			delta[j] = customerRow(p.orders[(i*miniBatchRows+j)%share][1].I, 0)
		}
		handle(node.Probe{Frag: "orders", FragCol: "custkey", Delta: delta, DeltaKey: 0, Algo: node.AlgoIndex})
	}) / 1e3
	m["node.find_matching_us"] = pr.perCall(40, func(i int) {
		handle(node.FindMatching{Frag: "orders", Pred: joinview.Eq("orderkey", p.orders[i%share][0])})
	}) / 1e3
	// last: it grows the fragment
	m["node.handle_insert_us"] = pr.perCall(2000, func(i int) {
		lo := (i * miniBatchRows) % (len(p.fresh) - miniBatchRows)
		handle(node.Insert{Frag: "orders", Tuples: p.fresh[lo : lo+miniBatchRows]})
	}) / 1e3
	return err
}

// mplanMaintain times plan compilation and lookup over the measured
// database's own catalog and statistics (read-only, after the run), and
// aggregate folding over a view of it when it has one.
func (pr prober) mplanMaintain(m map[string]float64, db *joinview.DB, w *workload) error {
	c := db.Cluster()
	cat, st := c.Catalog(), c.Stats()
	table := "customer" + w.suffixes[0]
	var err error
	m["mplan.compile_us"] = pr.perCall(200, func(int) {
		if _, e := mplan.Compile(cat, st, table, maintain.OpInsert); e != nil {
			err = e
		}
	}) / 1e3
	cache := mplan.NewCache()
	if _, _, e := cache.Get(cat, st, table, maintain.OpInsert); e != nil {
		return e
	}
	m["mplan.cache_get_ns"] = pr.perCall(probeIters, func(int) {
		if _, _, e := cache.Get(cat, st, table, maintain.OpInsert); e != nil {
			err = e
		}
	})
	groups := []mplan.GroupSpec{
		{Table: table, Op: maintain.OpDelete, DeltaSize: 32},
		{Table: table, Op: maintain.OpInsert, DeltaSize: 64},
	}
	m["mplan.compile_epoch_us"] = pr.perCall(200, func(int) {
		if _, e := mplan.CompileEpoch(cat, st, groups, nil); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	for _, name := range w.viewNames() {
		v, e := cat.View(name)
		if e != nil {
			return e
		}
		if !v.IsAggregate() {
			continue
		}
		// joined rows in the view's maintenance projection: its group
		// columns (BIGINT, or acctbal DOUBLE), then the summed measure
		proj := v.MaintenanceProjection()
		rows := make([]joinview.Tuple, batchRows)
		for i := range rows {
			rows[i] = make(joinview.Tuple, len(proj))
			for j, col := range proj {
				switch {
				case j == len(proj)-1:
					rows[i][j] = joinview.Float(float64(i%5000) + 0.25)
				case strings.HasSuffix(col, "acctbal"):
					rows[i][j] = joinview.Float(float64(i%nations) + 0.5)
				default:
					rows[i][j] = joinview.Int(int64(i % nations))
				}
			}
		}
		m["maintain.agg_fold_ns_per_row"] = pr.perCall(500, func(int) {
			gs, e := maintain.FoldAggDeltas(v, rows, maintain.OpInsert)
			if e != nil {
				err = e
			}
			sink += len(gs)
		}) / batchRows
		break
	}
	return err
}

// transport times one request/response exchange on an otherwise idle
// 4-node database with the workload's own transport, and returns it in
// microseconds; on TCP it also carries a node.Probe with a 1- and a
// 256-tuple delta against a loaded customer fragment.
func (pr prober) transport(m map[string]float64, p *probeRows, w *workload) (pingUs float64, err error) {
	metric, iters, unit := "netsim.direct.ping_ns", probeIters, 1.0
	switch {
	case w.opts.UseTCP:
		metric, iters, unit = "netsim.tcp.ping_us", 2000, 1e3
	case w.opts.UseChannels:
		metric, iters, unit = "netsim.chan.ping_us", 4000, 1e3
	}
	db, err := joinview.Open(joinview.Options{Nodes: nodes, UseTCP: w.opts.UseTCP, UseChannels: w.opts.UseChannels})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	t := db.Cluster().Transport()
	var callErr error
	call := func(to int, req any) {
		if _, e := t.Call(netsim.Coordinator, to, req); e != nil {
			callErr = e
		}
	}
	ns := pr.perCall(iters, func(i int) { call(i%nodes, node.Ping{}) })
	m[metric] = ns / unit
	if callErr != nil || !w.opts.UseTCP {
		return ns / 1e3, callErr
	}

	customers, _, _ := p.sc.baseRows(false)
	if err := db.CreateTable(customerTable("")); err != nil {
		return 0, err
	}
	if err := db.Insert("customer", customers); err != nil {
		return 0, err
	}
	delta := make([]joinview.Tuple, batchRows)
	for i := range delta {
		// orders beyond the customers' key range have no match; fold the
		// key so every delta tuple joins one customer
		o := p.orders[i%len(p.orders)]
		delta[i] = orderRow(o[0].I, o[1].I%p.sc.customers, 0)
	}
	probe := func(n int) func(int) {
		return func(i int) {
			call(i%nodes, node.Probe{Frag: "customer", FragCol: "custkey", Delta: delta[:n], DeltaKey: 1, Algo: node.AlgoIndex})
		}
	}
	m["netsim.tcp.probe1_us"] = pr.perCall(1000, probe(1)) / 1e3
	m["netsim.tcp.probe256_us"] = pr.perCall(100, probe(batchRows)) / 1e3
	return ns / 1e3, callErr
}

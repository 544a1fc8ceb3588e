package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"joinview"
	"joinview/internal/netsim"
	"joinview/internal/node"
)

// tracedShare of the window's length is what each part of the traced pass
// measures: the untraced reference, the traced window and every replay.
const tracedShare = 0.2

// liveProbeEvery: between statements, every this-many-th operation of
// writer 0 in the traced window also pings a node and probes a fragment
// of the live cluster, each under its own span. node.Probe charges the
// node's meter, which is why this never happens in the timed pass.
const liveProbeEvery = 64

// checkpointPages: a statement after which the nodes' WAL page count has
// jumped by at least this much carried a checkpoint image (a statement's
// own records are a handful of pages).
const checkpointPages = 64

func (p runParams) part() phaseSpec {
	if p.ops > 0 {
		return phaseSpec{ops: p.ops/5 + 1}
	}
	return phaseSpec{dur: time.Duration(p.seconds * tracedShare * float64(time.Second))}
}

// liveProber issues the between-statement probes of the traced window and
// watches the WAL for checkpoints.
type liveProber struct {
	db   *joinview.DB
	tr   *tracer
	frag string
	// customers bounds the probe's join key to the loaded customers
	customers int64
	n         int
	logPages  int64
	durable   bool
	ckptLat   []int64
	err       error
}

// observe runs after each of writer 0's statements.
func (l *liveProber) observe(lat int64) {
	if l.durable {
		var pages int64
		for _, c := range l.db.Metrics().Node {
			pages += c.LogPages
		}
		if l.n > 0 && pages-l.logPages >= checkpointPages {
			l.ckptLat = append(l.ckptLat, lat)
		}
		l.logPages = pages
	}
	l.n++
	if l.n%liveProbeEvery != 0 {
		return
	}
	t := l.db.Cluster().Transport()
	to := (l.n / liveProbeEvery) % nodes
	s := l.tr.begin(0, "netsim.ping")
	_, err := t.Call(netsim.Coordinator, to, node.Ping{})
	l.tr.end(s)
	if err == nil {
		key := int64(l.n) % l.customers
		s = l.tr.begin(0, "node.probe")
		_, err = t.Call(netsim.Coordinator, to, node.Probe{
			Frag: l.frag, FragCol: "custkey", Delta: []joinview.Tuple{orderRow(key, key, 0)},
			DeltaKey: 1, Algo: node.AlgoIndex,
		})
		l.tr.end(s)
	}
	if err != nil && l.err == nil {
		l.err = err
	}
}

// windowStats are the figures the replays compare.
type windowStats struct {
	p50us float64
	tput  float64
}

func statsOf(ph *phaseResult) windowStats {
	return windowStats{
		p50us: usOf(percentile(sortedCopy(ph.writes.lat), 50)),
		tput:  float64(len(ph.writes.lat)) / ph.elapsed.Seconds(),
	}
}

// replay measures the same stream on a database whose options differ from
// the workload's in one layer: set up, warm up, one untraced window of the
// traced pass's length.
func (w *workload) replay(p runParams, sc scale, mutate func(*joinview.Options), sessions int, noReader bool) (windowStats, error) {
	opts := w.opts
	mutate(&opts)
	gens := w.newGens(sc, p.seed)
	db, err := w.setUp(opts, sc, gens)
	if err != nil {
		return windowStats{}, err
	}
	defer db.Close()
	r := newRunner(w, db, gens[:sessions])
	if _, err := r.phase(w.warm(p, noReader), nil); err != nil {
		return windowStats{}, err
	}
	// the databases of the passes before this one are garbage by now;
	// collect it here so that it is not collected inside the window
	runtime.GC()
	spec := p.part()
	spec.noReader = noReader
	spec.flush = w.flushAtEnd && opts.AsyncMaintenance
	ph, err := r.phase(spec, nil)
	if err != nil {
		return windowStats{}, err
	}
	if ph.writes.failed+ph.reads.failed > 0 {
		return windowStats{}, fmt.Errorf("%d operations failed, first: %w", ph.writes.failed+ph.reads.failed, errors.Join(ph.writes.firstErr, ph.reads.firstErr))
	}
	if len(ph.writes.lat) == 0 {
		return windowStats{}, fmt.Errorf("no statement completed")
	}
	return statsOf(ph), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// taxes replays the stream with exactly one layer swapped per rerun and
// turns each pair into the ratio named after the layer.
func (w *workload) taxes(m map[string]float64, p runParams, sc scale, base windowStats) error {
	direct := func(o *joinview.Options) { o.UseTCP, o.UseChannels = false, false }
	type swap struct {
		name     string
		mutate   func(*joinview.Options)
		sessions int
		noReader bool
		use      func(alt windowStats)
	}
	var swaps []swap
	// the Direct transport serves one goroutine: one session, no reader.
	// With AsyncMaintenance the background flusher is a second one.
	switch {
	case !w.opts.UseTCP && !w.opts.UseChannels:
		m["cluster.stmt_direct_us"] = base.p50us
	case !w.opts.AsyncMaintenance:
		swaps = append(swaps, swap{"transport->direct", direct, 1, true, func(alt windowStats) {
			m["cluster.stmt_direct_us"] = alt.p50us
			if w.opts.UseTCP {
				m["netsim.tcp.share"] = 1 - ratio(alt.p50us, base.p50us)
			}
		}})
	}
	if w.opts.UseTCP {
		swaps = append(swaps, swap{"locked reads", func(o *joinview.Options) { o.LockedReads = true }, w.writers, false,
			func(alt windowStats) { m["cluster.mvcc_write_tax"] = ratio(base.p50us, alt.p50us) }})
	}
	if w.opts.Durability {
		swaps = append(swaps,
			swap{"durability off", func(o *joinview.Options) { o.Durability, o.CheckpointEvery = false, 0 }, w.writers, false,
				func(alt windowStats) { m["cluster.dur_tax"] = ratio(base.p50us, alt.p50us) }},
			swap{"replication factor 1", func(o *joinview.Options) { o.ReplicationFactor = 1 }, w.writers, false,
				func(alt windowStats) { m["cluster.repl_tax"] = ratio(base.p50us, alt.p50us) }},
			swap{"one session", func(*joinview.Options) {}, 1, false,
				func(alt windowStats) { m["cluster.session_scaling"] = ratio(base.tput, alt.tput) }})
	}
	if w.opts.AsyncMaintenance {
		swaps = append(swaps, swap{"async off", func(o *joinview.Options) { o.AsyncMaintenance, o.EpochSize = false, 0 }, w.writers, false,
			func(alt windowStats) { m["cluster.asyncq.speedup"] = ratio(base.tput, alt.tput) }})
	}
	for _, s := range swaps {
		alt, err := w.replay(p, sc, s.mutate, s.sessions, s.noReader)
		if err != nil {
			return fmt.Errorf("replay with %s: %w", s.name, err)
		}
		fmt.Printf("replay %-22s p50 %10.1f us  %10.1f stmts/s   (base p50 %.1f us, %.1f stmts/s)\n", s.name, alt.p50us, alt.tput, base.p50us, base.tput)
		s.use(alt)
	}
	return nil
}

// runTraced is the traced pass: an untraced reference window, a traced
// window and a second reference window, all of one length on one database;
// the output checks; then the one-layer-swapped replays and the isolated
// layer probes.
func (w *workload) runTraced(p runParams, layers []metricSpec, outDir string) (*outcome, error) {
	out := newOutcome()
	// a workload that does not exercise a layer reports 0 for it
	for _, s := range layers {
		out.metrics[s.Name] = 0
	}
	m := out.metrics
	sc := newScale(p.scale)
	gens := w.newGens(sc, p.seed)
	db, err := w.setUp(w.opts, sc, gens)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	r := newRunner(w, db, gens)
	spec := p.part()
	spec.flush = w.flushAtEnd

	warm, err := r.phase(w.warm(p, false), nil)
	if err != nil {
		return nil, err
	}
	out.add(warm)
	ref, err := r.phase(spec, nil)
	if err != nil {
		return nil, err
	}
	out.add(ref)

	epoch := time.Now()
	trs := make([]*tracer, len(gens)+1)
	for i := range trs {
		trs[i] = newTracer(i+1, epoch)
	}
	live := &liveProber{db: db, tr: trs[0], frag: "customer" + w.suffixes[0], customers: sc.customers, durable: w.opts.Durability}
	r.setTracers(trs[:len(gens)])
	r.execs[0].after = live.observe
	tr, err := r.phase(spec, trs[len(gens)])
	r.setTracers(nil)
	r.execs[0].after = nil
	if err != nil {
		return nil, err
	}
	out.add(tr)
	if live.err != nil {
		out.errs = append(out.errs, fmt.Errorf("live probe: %w", live.err))
	}
	// a second untraced window after the traced one: a database that slows
	// as it grows (durable-rf2-chan's checkpoints do) would otherwise show
	// up as tracing overhead
	ref2, err := r.phase(spec, nil)
	if err != nil {
		return nil, err
	}
	out.add(ref2)
	stmts := len(tr.writes.lat)
	if stmts == 0 || len(ref.writes.lat) == 0 || len(ref2.writes.lat) == 0 {
		return nil, fmt.Errorf("%s: no write statement completed in the traced pass", w.name)
	}

	if w.opts.AsyncMaintenance {
		if m["cluster.asyncq.flush_ms"], err = timeFlush(r, out); err != nil {
			return nil, err
		}
	}
	if w.crashStmts > 0 {
		if m["cluster.recover_ms"], err = w.crashEpilogue(r, out); err != nil {
			out.errs = append(out.errs, err)
		}
	}
	out.errs = append(out.errs, w.verify(db, sc, gens)...)

	var spans []span
	for _, t := range trs {
		spans = append(spans, t.spans...)
	}
	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-spans-seed%d.json", w.name, p.seed)), spans); err != nil {
			return nil, err
		}
	}

	base := statsOf(ref)
	w.windowMetrics(m, tr, live)
	w.spanMetrics(m, summarize(spans))
	m["bench.trace_overhead_pct"] = 100 * (1 - ratio(statsOf(tr).tput, (base.tput+statsOf(ref2).tput)/2))
	out.samples["write"] = stmts
	out.samples["read"] = len(tr.reads.lat)
	out.samples["spans"] = len(spans)
	out.segments = tr.segmentRates()

	if err := w.taxes(m, p, sc, base); err != nil {
		return nil, err
	}
	pr := prober{rounds: probeRounds, div: 1}
	if p.scale < 1 {
		pr = prober{rounds: 1, div: 100}
	}
	// bare round trips per statement, priced at the idle transport's ping
	pingUs, err := pr.layerProbes(m, sc, p.seed, db, w)
	if err != nil {
		return nil, err
	}
	var sumNs int64
	for _, l := range tr.writes.lat {
		sumNs += l
	}
	m["netsim.ping_share"] = ratio(m["netsim.envelopes_per_stmt"]*pingUs, usOf(sumNs)/float64(stmts))
	return out, nil
}

// flushEpoch is how many deferred statements timeFlush queues before each
// timed Flush: one short of the depth that wakes the background flusher.
const flushEpoch = 63

// timeFlush measures DB.Flush of a flushEpoch-statement epoch of the
// workload's own stream, median of several.
func timeFlush(r *runner, out *outcome) (float64, error) {
	var ms []float64
	for rep := 0; rep < 9; rep++ {
		ph, err := r.phase(phaseSpec{ops: flushEpoch}, nil)
		if err != nil {
			return 0, err
		}
		out.add(ph)
		t0 := time.Now()
		if err := r.db.Flush(); err != nil {
			return 0, fmt.Errorf("flush: %w", err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return medianF(ms), nil
}

// windowMetrics derives the counter-based per-layer metrics from the
// traced window.
func (w *workload) windowMetrics(m map[string]float64, ph *phaseResult, live *liveProber) {
	stmts := len(ph.writes.lat)
	d := ph.after.Sub(ph.before)
	tot := d.Total()
	wl := sortedCopy(ph.writes.lat)
	secs := ph.elapsed.Seconds()

	m["mplan.cache_hit_rate"] = d.Pipeline.HitRate()
	m["storage.ios_per_stmt.search"] = perStmt(tot.Searches, stmts)
	m["storage.ios_per_stmt.fetch"] = perStmt(tot.Fetches, stmts)
	m["storage.ios_per_stmt.insert"] = perStmt(tot.Inserts, stmts)
	m["storage.ios_per_stmt.delete"] = perStmt(tot.Deletes, stmts)
	m["storage.ios_per_stmt.scan"] = perStmt(tot.ScanPages, stmts)
	m["storage.ios_per_stmt.sort"] = perStmt(tot.SortPages, stmts)
	m["storage.ios_per_stmt.log"] = perStmt(tot.LogPages, stmts)
	m["buffer.hit_rate"] = ratio(float64(d.PoolHits()), float64(d.PoolHits()+d.PhysicalIOs()))
	m["buffer.physical_ios_per_stmt"] = perStmt(d.PhysicalIOs(), stmts)
	m["netsim.envelopes_per_stmt"] = perStmt(d.Net.Envelopes, stmts)
	m["netsim.msgs_per_envelope"] = ratio(float64(d.Net.Messages), float64(d.Net.Envelopes))
	m["netsim.local_call_share"] = ratio(float64(d.Net.LocalCalls), float64(d.Net.LocalCalls+d.Net.Messages))
	m["cluster.repl.mirrors_per_stmt"] = perStmt(d.Repl.Mirrors, stmts)
	m["cluster.coord_log_pages_per_stmt"] = perStmt(d.Coord.LogPages, stmts)
	m["wal.log_pages_per_stmt"] = perStmt(tot.LogPages+d.Coord.LogPages, stmts)
	m["cluster.sharedjoin_pages_per_stmt"] = perStmt(d.Pipeline.Stages["sharedjoin"].Pages, stmts)

	// victims: rows the window's DELETE and UPDATE statements removed or
	// rewrote; every scanned page holds PageRows (10) rows
	var victims int64
	for i, rows := range ph.writes.rows {
		if ph.writes.victim[i] {
			victims += int64(rows)
		}
	}
	if victims > 0 {
		m["cluster.victim_rows_examined_per_victim"] = float64(tot.ScanPages*10) / float64(victims)
	}

	if w.opts.AsyncMaintenance {
		m["cluster.asyncq.enqueue_us"] = usOf(percentile(wl, 50))
		m["cluster.asyncq.epochs"] = float64(d.Queue.EpochsFlushed)
		m["cluster.asyncq.flush_share"] = m["cluster.asyncq.flush_ms"] / 1e3 * m["cluster.asyncq.epochs"] / secs
		m["cluster.asyncq.cancel_rate"] = d.Queue.CancelRate()
		lags := sortedCopy(ph.reads.lag)
		m["cluster.asyncq.lag_p95_ms"] = float64(percentile(lags, highestPercentile(len(lags), 95))) / 1e6
	}
	if len(live.ckptLat) > 0 {
		m["wal.checkpoints"] = float64(len(live.ckptLat))
		m["wal.checkpoint_ms"] = float64(percentile(sortedCopy(live.ckptLat), 50)) / 1e6
	}

	mallocs := ph.mem1.Mallocs - ph.mem0.Mallocs
	m["runtime.allocs_per_stmt"] = float64(mallocs) / float64(stmts)
	m["runtime.alloc_bytes_per_stmt"] = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / float64(stmts)
	m["runtime.gc_cycles"] = float64(ph.mem1.NumGC - ph.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6
	late := sortedCopy(ph.reads.late)
	m["bench.reader_late_p99_us"] = usOf(percentile(late, highestPercentile(len(late), 99)))
	segs := ph.segmentRates()
	lo, hi := minMax(segs)
	m["bench.segment_spread"] = ratio(hi-lo, medianF(segs))

	rl := sortedCopy(ph.reads.lat)
	m["e2e.write_p50_us"] = usOf(percentile(wl, 50))
	m["e2e.write_p99_us"] = usOf(percentile(wl, highestPercentile(len(wl), 99)))
	m["e2e.read_p50_us"] = usOf(percentile(rl, 50))
	m["e2e.read_p95_us"] = usOf(percentile(rl, highestPercentile(len(rl), 95)))
	attempted := ph.writes.attempted + ph.reads.attempted
	m["e2e.failed_frac"] = ratio(float64(ph.writes.failed+ph.reads.failed), float64(attempted))
}

// spanMetrics derives the span-based per-layer metrics.
func (w *workload) spanMetrics(m map[string]float64, sum spanSummary) {
	write, parse, exec := sum.get("write"), sum.get("sql.parse"), sum.get("cluster.exec")
	m["sql.parse_us"] = usOf(percentile(parse.durs, 50))
	m["sql.share"] = ratio(float64(parse.totalNs), float64(write.totalNs))
	m["cluster.exec_p50_us"] = usOf(percentile(exec.durs, 50))
	m["bench.harness_self_us"] = usOf(percentile(write.selfs, 50))
	m["netsim.live_ping_us"] = usOf(percentile(sum.get("netsim.ping").durs, 50))
	m["node.live_probe_us"] = usOf(percentile(sum.get("node.probe").durs, 50))
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"joinview"
)

// A run sets the database up at least minSetUps times and goes on until
// the set-ups have taken setUpTime together: a 40 ms set-up
// (keyed-oltp-direct) varies by +-20 % from one to the next, and the
// median of 11 of them moved 19 % between runs where the median of 11
// set-ups of 270 ms (bulk-scan-chan) moved 3 %. setup_s is the median, the
// last database is the one measured.
const (
	minSetUps = 11
	setUpTime = 2 * time.Second
)

// runParams are one run's inputs. The command line sets seed and seconds;
// ops and scale are the smoke test's, which shrinks the data set and
// replaces every timed window by a fixed statement count.
type runParams struct {
	seed    int64
	seconds float64
	ops     int     // > 0: a fixed statement count replaces the duration
	scale   float64 // data-set size; 1 is the benchmark's
}

func (p runParams) window() phaseSpec {
	return phaseSpec{dur: time.Duration(p.seconds * float64(time.Second)), ops: p.ops}
}

// outcome collects what a run produced: metric values, sample counts,
// operation totals and every failed check.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]int
	segments  []float64
	notes     []string // printed with the metrics, not part of them
	attempted int
	failed    int
	errs      []error
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

// add counts a phase's operations, writes and reads, towards the run's
// attempted and failed totals.
func (o *outcome) add(ph *phaseResult) {
	for _, s := range []*samples{&ph.writes, &ph.reads} {
		o.attempted += s.attempted
		o.failed += s.failed
		if s.firstErr != nil {
			o.errs = append(o.errs, fmt.Errorf("%d operations failed, first: %w", s.failed, s.firstErr))
		}
	}
}

// timedSetUps sets the workload up minSetUps times, and more until the
// set-ups have taken atLeast together, and returns the last database with
// its generators and the median set-up time.
func (w *workload) timedSetUps(sc scale, seed int64, atLeast time.Duration) (*joinview.DB, []generator, float64, error) {
	var (
		db    *joinview.DB
		gens  []generator
		times []float64
		spent time.Duration
	)
	for k := 0; k < minSetUps || spent < atLeast; k++ {
		if db != nil {
			db.Close()
		}
		gens = w.newGens(sc, seed)
		// the previous set-up's database is garbage; collected inside the
		// timed part it made one set-up 0.10 s and the next 0.15 s
		runtime.GC()
		t0 := time.Now()
		var err error
		if db, err = w.setUp(w.opts, sc, gens); err != nil {
			return nil, nil, 0, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return db, gens, medianF(times), nil
}

// perStmt divides a window's counter by its acknowledged write statements.
func perStmt(n int64, stmts int) float64 {
	if stmts == 0 {
		return 0
	}
	return float64(n) / float64(stmts)
}

// runEndToEnd is the untraced pass: set up, warm up, count logical costs
// over a fixed number of statements, measure one timed window, then check
// the outputs.
func (w *workload) runEndToEnd(p runParams) (*outcome, error) {
	out := newOutcome()
	sc := newScale(p.scale)
	atLeast := setUpTime
	if p.ops > 0 {
		atLeast = 0 // the smoke test checks that set-up works, not how long it takes
	}
	db, gens, setupS, err := w.timedSetUps(sc, p.seed, atLeast)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	r := newRunner(w, db, gens)

	warm, err := r.phase(w.warm(p, false), nil)
	if err != nil {
		return nil, err
	}
	out.add(warm)

	cnt, err := r.phase(w.count(p), nil)
	if err != nil {
		return nil, err
	}
	out.add(cnt)
	// space and heap are read here, after a fixed number of statements, and
	// not at window end: there they grow with the number of statements the
	// window fitted (1 KB a statement on trickle-tcp, 10 KB on
	// durable-rf2-chan), so a faster engine would read as a larger one
	amp, err := spaceAmp(db)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	spec := p.window()
	spec.flush = w.flushAtEnd
	win, err := r.phase(spec, nil)
	if err != nil {
		return nil, err
	}
	out.add(win)

	stmts, counted := len(win.writes.lat), len(cnt.writes.lat)
	if stmts == 0 || counted == 0 {
		return nil, fmt.Errorf("%s: no write statement completed in the window", w.name)
	}
	if len(win.reads.lat) == 0 {
		return nil, fmt.Errorf("%s: no read completed in the window", w.name)
	}
	var rows int64
	for _, n := range win.writes.rows {
		rows += int64(n)
	}
	wl, rl := sortedCopy(win.writes.lat), sortedCopy(win.reads.lat)
	d := cnt.after.Sub(cnt.before)
	out.segments = win.segmentRates()
	for _, l := range []struct {
		what   string
		sorted []int64
	}{{"write", wl}, {"read", rl}} {
		hi := highestPercentile(len(l.sorted), 100)
		out.notes = append(out.notes, fmt.Sprintf("%s latency p50 = %.1f us, p%g = %.1f us (the highest percentile with %d samples beyond it, of %d)",
			l.what, usOf(percentile(l.sorted, 50)), hi, usOf(percentile(l.sorted, hi)), minBeyond, len(l.sorted)))
	}
	out.samples["write"] = stmts
	out.samples["read"] = len(rl)
	out.samples["counted"] = counted
	out.metrics["setup_s"] = setupS
	out.metrics["write_stmts_per_s"] = float64(stmts) / win.elapsed.Seconds()
	out.metrics["delta_rows_per_s"] = float64(rows) / win.elapsed.Seconds()
	out.metrics["tw_ios_per_stmt"] = perStmt(d.TotalIOs(), counted)
	out.metrics["msgs_per_stmt"] = perStmt(d.Net.Messages, counted)
	out.metrics["max_node_ios_per_stmt"] = perStmt(d.MaxNodeIOs(), counted)
	out.metrics["space_amp"] = amp
	out.metrics["heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	if w.crashStmts > 0 {
		if _, err := w.crashEpilogue(r, out); err != nil {
			out.errs = append(out.errs, err)
		}
	}
	out.errs = append(out.errs, w.verify(db, sc, gens)...)
	return out, nil
}

// crashEpilogue fail-stops node 1, issues crashStmts more statements that
// must all succeed through failover, and recovers the node. It returns the
// recovery time in milliseconds.
func (w *workload) crashEpilogue(r *runner, out *outcome) (float64, error) {
	if err := r.db.CrashNode(1); err != nil {
		return 0, fmt.Errorf("crash node 1: %w", err)
	}
	down, err := r.phase(phaseSpec{ops: w.crashStmts, noReader: true}, nil)
	if err != nil {
		return 0, err
	}
	out.add(down)
	t0 := time.Now()
	if err := r.db.Recover(1); err != nil {
		return 0, fmt.Errorf("recover node 1: %w", err)
	}
	return float64(time.Since(t0)) / 1e6, nil
}

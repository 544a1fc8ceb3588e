package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"joinview"
	"joinview/internal/sql"
)

// segments is how many equal slices the timed window is cut into; their
// throughputs are reported as the in-run spread.
const segments = 5

// executor runs operations for one goroutine, through the public API when
// untraced; with a tracer it splits SQL into sql.Parse + ExecStmt so each
// gets a span.
type executor struct {
	db   *joinview.DB
	sess *joinview.Session
	w    *workload
	tr   *tracer
	// reads counts the in-line reads this executor has issued
	reads int
	// after, when set, runs after each acknowledged write statement with
	// its latency in nanoseconds (the traced pass's live probes)
	after func(lat int64)
}

// exec runs one operation and returns how many base rows it applied (for
// opRead, how many rows it read).
func (x *executor) exec(o *op) (int, error) {
	if x.tr != nil {
		return x.execTraced(o)
	}
	switch {
	case o.kind == opRead:
		x.reads++
		rows, _, err := x.w.read(x.db, x.reads)
		return rows, err
	case o.sql != "":
		var r *joinview.Result
		var err error
		if x.sess != nil {
			r, err = x.sess.Exec(o.sql)
		} else {
			r, err = x.db.Exec(o.sql)
		}
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	case o.kind == opInsert:
		return len(o.tuples), x.db.Insert(o.table, o.tuples)
	case o.kind == opDelete:
		gone, err := x.db.Delete(o.table, o.pred)
		return len(gone), err
	}
	return 0, fmt.Errorf("bench: operation of kind %d has neither SQL nor a typed form", o.kind)
}

// execTraced is exec with a root span per operation and a child span
// around each call the harness itself makes into a layer.
func (x *executor) execTraced(o *op) (rows int, err error) {
	if o.kind == opRead {
		root := x.tr.begin(0, "read")
		x.reads++
		rows, _, err = x.w.read(x.db, x.reads)
		x.tr.end(root)
		return rows, err
	}
	root := x.tr.begin(0, "write")
	defer x.tr.end(root)
	if o.sql != "" {
		p := x.tr.begin(root, "sql.parse")
		st, err := sql.Parse(o.sql)
		x.tr.end(p)
		if err != nil {
			return 0, err
		}
		e := x.tr.begin(root, "cluster.exec")
		var r *joinview.Result
		if x.sess != nil {
			r, err = x.sess.ExecStmt(st)
		} else {
			r, err = sql.ExecStmt(x.db.Cluster(), st)
		}
		x.tr.end(e)
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	}
	e := x.tr.begin(root, "cluster.exec")
	defer x.tr.end(e)
	if o.kind == opInsert {
		return len(o.tuples), x.db.Insert(o.table, o.tuples)
	}
	gone, err := x.db.Delete(o.table, o.pred)
	return len(gone), err
}

// samples are one goroutine's measurements within a phase. Offsets and
// latencies are nanoseconds; done is the completion offset from the phase
// start.
type samples struct {
	lat  []int64
	done []int64
	rows []int32
	// victim marks DELETE and UPDATE statements, whose rows are victims
	// the engine had to locate first
	victim []bool
	late   []int64 // open-loop reads: issue time minus due time
	lag    []int64 // watermark reads: Watermark.Lag
	// attempted and failed count every operation, acknowledged or not
	attempted, failed int
	firstErr          error
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// phaseSpec bounds one phase: by duration, or by a write-statement count
// when ops > 0 (split evenly over the writers).
type phaseSpec struct {
	dur time.Duration
	ops int
	// flush drains the async queue before the phase ends
	flush bool
	// flushEvery > 0: each writer drains the async queue itself after
	// every that-many statements, so that epochs are cut at fixed points
	// of the stream and not wherever the background flusher wakes
	flushEvery int
	// noReader runs the writers alone: the counting phase (a metered read
	// would be charged to the writers' statements) and Direct-transport
	// replays (that transport serves one goroutine at a time)
	noReader bool
}

// phaseResult is what one phase measured.
type phaseResult struct {
	elapsed time.Duration
	nominal time.Duration // the window the segments divide
	writes  samples       // all writers merged
	reads   samples       // the reader, plus in-line reads
	before  joinview.Metrics
	after   joinview.Metrics
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

// runner drives one database through phases. Generators, sessions and the
// reader's position persist across phases, so a warm-up phase and a timed
// phase are one continuous stream.
type runner struct {
	w     *workload
	db    *joinview.DB
	gens  []generator
	execs []*executor
	// nextRead is the open-loop reader's next read index
	nextRead int
}

func newRunner(w *workload, db *joinview.DB, gens []generator) *runner {
	r := &runner{w: w, db: db, gens: gens}
	for range gens {
		x := &executor{db: db, w: w}
		if w.writers > 1 {
			x.sess = db.NewSession()
		}
		r.execs = append(r.execs, x)
	}
	return r
}

// setTracers attaches one tracer per writer (nil slice: tracing off).
func (r *runner) setTracers(trs []*tracer) {
	for i, x := range r.execs {
		x.tr = nil
		if trs != nil {
			x.tr = trs[i]
		}
	}
}

// phase runs the writers closed-loop and the reader open-loop until the
// phase's bound, and returns the merged samples with the engine and
// process counters read just before and just after.
func (r *runner) phase(spec phaseSpec, readTracer *tracer) (*phaseResult, error) {
	res := &phaseResult{}
	per := make([]samples, len(r.gens))
	inline := make([]samples, len(r.gens))
	var rd samples
	opsPer := 0
	if spec.ops > 0 {
		opsPer = (spec.ops + len(r.gens) - 1) / len(r.gens)
	}

	runtime.ReadMemStats(&res.mem0)
	res.before = r.db.Metrics()
	start := time.Now()
	deadline := start.Add(spec.dur)

	var writers sync.WaitGroup
	for s := range r.gens {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			gen, x, out, in := r.gens[s], r.execs[s], &per[s], &inline[s]
			for n := 0; ; {
				if opsPer > 0 {
					if n >= opsPer {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				o := gen.next()
				t0 := time.Now()
				rows, err := x.exec(&o)
				t1 := time.Now()
				dst := out
				if o.kind == opRead {
					dst = in
				} else {
					n++
				}
				dst.attempted++
				if err == nil && o.kind != opRead && rows != o.rows {
					err = fmt.Errorf("%s on %s applied %d rows, want %d", kindName(o.kind), o.table, rows, o.rows)
				}
				if err == nil && o.kind == opRead && rows == 0 {
					err = fmt.Errorf("in-line read returned no rows")
				}
				if err != nil {
					dst.fail(err)
					continue
				}
				gen.ack(&o)
				dst.lat = append(dst.lat, int64(t1.Sub(t0)))
				dst.done = append(dst.done, int64(t1.Sub(start)))
				dst.rows = append(dst.rows, int32(rows))
				dst.victim = append(dst.victim, o.kind == opDelete || o.kind == opUpdate)
				if x.after != nil && o.kind != opRead {
					x.after(int64(t1.Sub(t0)))
				}
				if spec.flushEvery > 0 && n%spec.flushEvery == 0 {
					if err := r.db.Flush(); err != nil {
						out.fail(err)
					}
				}
			}
		}(s)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	if r.w.readRate > 0 && !spec.noReader {
		reader.Add(1)
		go func() {
			defer reader.Done()
			interval := time.Duration(float64(time.Second) / r.w.readRate)
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * interval)
				if opsPer == 0 && !due.Before(deadline) {
					return
				}
				// behind schedule the timer fires at once: the read goes out
				// late and is still timed from when it was due
				timer.Reset(time.Until(due))
				select {
				case <-stop:
					return
				case <-timer.C:
				}
				i := r.nextRead
				r.nextRead++
				t0 := time.Now()
				root := readTracer.begin(0, "read")
				rows, lag, err := r.w.read(r.db, i)
				readTracer.end(root)
				t1 := time.Now()
				rd.attempted++
				if err == nil && rows == 0 {
					err = fmt.Errorf("read %d returned no rows", i)
				}
				if err != nil {
					rd.fail(err)
					continue
				}
				rd.lat = append(rd.lat, int64(t1.Sub(due)))
				rd.done = append(rd.done, int64(t1.Sub(start)))
				rd.late = append(rd.late, int64(t0.Sub(due)))
				rd.lag = append(rd.lag, int64(lag))
			}
		}()
	}

	writers.Wait()
	close(stop)
	reader.Wait()
	var flushErr error
	if spec.flush {
		flushErr = r.db.Flush()
	}
	res.elapsed = time.Since(start)
	res.after = r.db.Metrics()
	runtime.ReadMemStats(&res.mem1)

	res.nominal = spec.dur
	if opsPer > 0 || res.nominal <= 0 {
		res.nominal = res.elapsed
	}
	for s := range per {
		res.writes.merge(&per[s])
		res.reads.merge(&inline[s])
	}
	res.reads.merge(&rd)
	if flushErr != nil {
		return res, fmt.Errorf("flush at window end: %w", flushErr)
	}
	return res, nil
}

func (s *samples) merge(o *samples) {
	s.lat = append(s.lat, o.lat...)
	s.done = append(s.done, o.done...)
	s.rows = append(s.rows, o.rows...)
	s.victim = append(s.victim, o.victim...)
	s.late = append(s.late, o.late...)
	s.lag = append(s.lag, o.lag...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func kindName(k opKind) string {
	return [...]string{"insert", "delete", "update", "read"}[k]
}

// segmentRates cuts the window into `segments` equal slices and returns
// each slice's write statements per second. Statements that completed
// after the nominal end (in flight at the deadline, or waiting on the final
// flush) belong to the last slice, which is stretched to the real elapsed
// time.
func (p *phaseResult) segmentRates() []float64 {
	width := int64(p.nominal) / segments
	if width <= 0 {
		width = 1
	}
	rates := make([]float64, segments)
	for _, d := range p.writes.done {
		k := int(d / width)
		if k >= segments {
			k = segments - 1
		}
		rates[k]++
	}
	for k := range rates {
		secs := float64(width) / 1e9
		if k == segments-1 {
			secs = float64(int64(p.elapsed)-width*(segments-1)) / 1e9
		}
		rates[k] /= secs
	}
	return rates
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

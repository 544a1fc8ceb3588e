package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// spanID identifies a span within a run: the owning tracer's number in the
// high bits, the span's position in its buffer (from 1) in the low bits.
// Zero means "no parent".
type spanID uint64

// span is one traced interval. Spans of one operation share Op, the
// operation's root span id; StartNs/EndNs are offsets from the tracer
// epoch.
type span struct {
	ID      spanID `json:"id"`
	Parent  spanID `json:"parent"`
	Op      spanID `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer is one goroutine's in-memory span buffer; it is not safe for
// concurrent use. Spans are written out when the benchmark ends.
type tracer struct {
	num   uint64
	epoch time.Time
	spans []span
}

func newTracer(num int, epoch time.Time) *tracer {
	return &tracer{num: uint64(num) << 40, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin and end do nothing on a nil tracer: tracing off.
func (t *tracer) begin(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	id := spanID(t.num | uint64(len(t.spans)+1))
	op := id
	if parent != 0 {
		op = t.spans[t.index(parent)].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	t.spans[t.index(id)].EndNs = int64(time.Since(t.epoch))
}

func (t *tracer) index(id spanID) int { return int(uint64(id)&(1<<40-1)) - 1 }

// spanStats summarizes the spans of one name: count, summed duration,
// summed self time (duration minus the part child spans cover) and the
// sorted durations and self times.
type spanStats struct {
	n       int
	totalNs int64
	selfNs  int64
	durs    []int64
	selfs   []int64
}

// spanSummary maps a span name to its statistics.
type spanSummary map[string]*spanStats

// summarize groups spans by name. Children never overlap each other here
// (each tracer is one goroutine making sequential calls), so a span's self
// time is its duration minus the sum of its children's.
func summarize(spans []span) spanSummary {
	child := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := spanSummary{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.n++
		st.totalNs += d
		st.selfNs += d - child[s.ID]
		st.durs = append(st.durs, d)
		st.selfs = append(st.selfs, d-child[s.ID])
	}
	for _, st := range out {
		slices.Sort(st.durs)
		slices.Sort(st.selfs)
	}
	return out
}

func (m spanSummary) get(name string) *spanStats {
	if st := m[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// writeSpans dumps the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

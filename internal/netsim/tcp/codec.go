package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// The envelope codec. A frame is a 4-byte big-endian body length followed
// by the body:
//
//	request  := message
//	response := 0 message | 1 code(1) text
//	message  := tag(1) fields
//
// A message's tag is its type's position in messages plus one, and 0 is
// nil; the same tags mark the interfaces nested in a message (Seq.Req,
// SeqQueryResult.Resp). The expr.Expr trees inside FindMatching are tagged
// the same way by their position in exprs. Fields follow in declaration
// order: integers as varints, floats as their IEEE-754 bits, strings as a
// length and bytes, and rows and values in the types row format
// (AppendTuple/AppendValue), so a float -0 inside a row arrives as +0,
// the value types.Compare, Hash and every stored row already treat it as.
// A slice is a count and its elements; an empty slice and a nil one both
// arrive as nil, wherever they sit.
//
// Decoding checks every count and length against the bytes that remain,
// so a malformed body yields an error, never a panic or an allocation
// larger than the body. Decoded strings and rows are copies: the frame
// buffer is reused for the next frame.

// messages is the tag table: every request and response type a node
// speaks, then a plain string (the payload of the link contract's tests).
var messages = append(append(node.AllRequests(), node.AllResponses()...), "")

// exprs is the tag table of the predicate nodes in a FindMatching tree.
var exprs = []any{expr.Col{}, expr.Const{}, expr.Cmp{}, expr.And{}, expr.Or{}, expr.Not{}}

const (
	// maxFrame bounds a frame body; a longer one is refused on both ends.
	maxFrame = 1 << 30
	// maxDepth bounds how deeply messages and predicates nest.
	maxDepth = 64
	// keepBuf is the largest frame buffer a connection keeps for the next
	// frame; a larger one, grown for a bulk statement or a full scan, is
	// dropped after use.
	keepBuf = 64 << 10
)

func init() {
	if len(messages) > math.MaxUint8 {
		panic(fmt.Sprintf("tcp: %d message types do not fit a one-byte tag", len(messages)))
	}
	for _, m := range messages {
		decoders = append(decoders, decoderOf(m))
	}
}

// tagOf is T's tag in table, or 0 when table does not list T.
func tagOf[T any](table []any) byte {
	for i, m := range table {
		if _, ok := m.(T); ok {
			return byte(i + 1)
		}
	}
	return 0
}

// Response status bytes.
const (
	statusOK byte = iota
	statusErr
)

// request returns req's frame, valid until the writer's next frame.
func (w *writer) request(req any) ([]byte, error) {
	w.start()
	w.message(req, 0)
	return w.frame()
}

// response returns the frame of a handler's result: the error when there
// is one, else the response.
func (w *writer) response(resp any, err error) ([]byte, error) {
	w.start()
	if err != nil {
		var code byte
		for i, s := range sentinels {
			if errors.Is(err, s) {
				code = byte(i + 1)
			}
		}
		w.byte(statusErr)
		w.byte(code)
		w.str(err.Error())
	} else {
		w.byte(statusOK)
		w.message(resp, 0)
	}
	return w.frame()
}

// request decodes a request body.
func (r *reader) request(body []byte) (any, error) {
	*r = reader{b: body}
	m := r.message(0)
	return m, r.done()
}

// response decodes a response body; a handler's error comes back as a
// *wireError.
func (r *reader) response(body []byte) (any, error) {
	*r = reader{b: body}
	switch st := r.byte(); st {
	case statusOK:
		m := r.message(0)
		return m, r.done()
	case statusErr:
		e := &wireError{}
		if c := int(r.byte()); c > len(sentinels) {
			r.fail("error code %d", c)
		} else if c > 0 {
			e.sentinel = sentinels[c-1]
		}
		e.msg = r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		return nil, e
	default:
		r.fail("response status %d", st)
		return nil, r.done()
	}
}

// frameReader reads frames off one connection into a reused buffer, and
// keeps the reader that decodes them.
type frameReader struct {
	r   *bufio.Reader
	hdr [4]byte
	buf []byte
	dec reader
}

// next returns the next frame's body, valid until the following call or
// trim. The buffer grows at most keepBuf ahead of the bytes that arrived,
// so a corrupt length costs no allocation the stream does not back.
func (f *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame of %d bytes exceeds %d", n, maxFrame)
	}
	f.buf = f.buf[:0]
	for len(f.buf) < n {
		have := len(f.buf)
		f.buf = slices.Grow(f.buf, min(n-have, keepBuf))[:have+min(n-have, keepBuf)]
		if _, err := io.ReadFull(f.r, f.buf[have:]); err != nil {
			return nil, err
		}
	}
	return f.buf, nil
}

// trim drops a frame buffer a bulk statement grew past keepBuf, once the
// frame is decoded.
func (f *frameReader) trim() {
	if cap(f.buf) > keepBuf {
		f.buf = nil
	}
}

// writer builds one frame at a time in a buffer it keeps for the next;
// the first encoding error of a frame sticks.
type writer struct {
	b   []byte
	err error
}

// start begins a frame, leaving room for its length prefix.
func (w *writer) start() {
	w.b = append(w.b[:0], 0, 0, 0, 0)
	w.err = nil
}

// frame fills in the length prefix and returns the frame.
func (w *writer) frame() ([]byte, error) {
	n := len(w.b) - 4
	if w.err == nil && n > maxFrame {
		w.err = fmt.Errorf("tcp: frame of %d bytes exceeds %d", n, maxFrame)
	}
	if w.err != nil {
		return nil, w.err
	}
	binary.BigEndian.PutUint32(w.b, uint32(n))
	return w.b, nil
}

// trim drops a buffer a bulk statement grew past keepBuf, once the frame
// is written.
func (w *writer) trim() {
	if cap(w.b) > keepBuf {
		w.b = nil
	}
}

func (w *writer) byte(c byte) { w.b = append(w.b, c) }

func (w *writer) bool(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *writer) int(v int)        { w.varint(int64(v)) }
func (w *writer) f64(v float64)    { w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v)) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *writer) value(v types.Value) { w.b = types.AppendValue(w.b, v) }
func (w *writer) tuple(t types.Tuple) { w.b = types.AppendTuple(w.b, t) }

func (w *writer) tuples(ts []types.Tuple) {
	w.uvarint(uint64(len(ts)))
	for _, t := range ts {
		w.tuple(t)
	}
}

func (w *writer) values(vs []types.Value) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.value(v)
	}
}

func (w *writer) rowIDs(rs []storage.RowID) {
	w.uvarint(uint64(len(rs)))
	for _, r := range rs {
		w.uvarint(uint64(r))
	}
}

func (w *writer) gid(g storage.GlobalRowID) {
	w.varint(int64(g.Node))
	w.uvarint(uint64(g.Row))
}

func (w *writer) gids(gs []storage.GlobalRowID) {
	w.uvarint(uint64(len(gs)))
	for _, g := range gs {
		w.gid(g)
	}
}

func (w *writer) bools(bs []bool) {
	w.uvarint(uint64(len(bs)))
	for _, b := range bs {
		w.bool(b)
	}
}

func (w *writer) u64s(us []uint64) {
	w.uvarint(uint64(len(us)))
	for _, u := range us {
		w.uvarint(u)
	}
}

func (w *writer) int32s(xs []int32) {
	w.uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.varint(int64(x))
	}
}

func (w *writer) ints(xs []int) {
	w.uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.int(x)
	}
}

func (w *writer) schema(s *types.Schema) {
	if s == nil {
		w.byte(0)
		return
	}
	w.byte(1)
	w.uvarint(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		w.str(c.Name)
		w.byte(byte(c.Kind))
	}
}

func (w *writer) expr(e expr.Expr, depth int) {
	if depth > maxDepth {
		w.fail(fmt.Errorf("tcp: predicate nests deeper than %d", maxDepth))
		return
	}
	switch e := e.(type) {
	case nil:
		w.byte(0)
	case expr.Col:
		w.byte(tagOf[expr.Col](exprs))
		w.str(e.Name)
	case expr.Const:
		w.byte(tagOf[expr.Const](exprs))
		w.value(e.V)
	case expr.Cmp:
		w.byte(tagOf[expr.Cmp](exprs))
		w.byte(byte(e.Op))
		w.expr(e.L, depth+1)
		w.expr(e.R, depth+1)
	case expr.And:
		w.byte(tagOf[expr.And](exprs))
		w.exprs(e.Terms, depth)
	case expr.Or:
		w.byte(tagOf[expr.Or](exprs))
		w.exprs(e.Terms, depth)
	case expr.Not:
		w.byte(tagOf[expr.Not](exprs))
		w.expr(e.E, depth+1)
	default:
		w.fail(fmt.Errorf("tcp: cannot encode predicate %T", e))
	}
}

func (w *writer) exprs(es []expr.Expr, depth int) {
	w.uvarint(uint64(len(es)))
	for _, e := range es {
		w.expr(e, depth+1)
	}
}

func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// tag writes a message tag; 0 is a type the switch below encodes but
// messages does not list.
func (w *writer) tag(t byte) {
	if t == 0 {
		w.fail(errors.New("tcp: cannot encode a message type missing from the tag table"))
	}
	w.byte(t)
}

// put writes m's tag, then its fields through body. Each type's body is
// a function of its own, which keeps the frame of the switch that picks
// it small: a call from a fresh goroutine does not grow the stack.
func put[T any](w *writer, m any, body func(*writer, T)) {
	w.tag(tagOf[T](messages))
	body(w, m.(T))
}

// message writes m's tag and fields.
func (w *writer) message(m any, depth int) {
	if depth > maxDepth {
		w.fail(fmt.Errorf("tcp: message nests deeper than %d", maxDepth))
		return
	}
	switch m.(type) {
	case nil:
		w.byte(0)

	// Requests.
	case node.Seq:
		put(w, m, func(w *writer, m node.Seq) {
			w.uvarint(m.ID)
			w.uvarint(m.TID)
			w.message(m.Req, depth+1)
		})
	case node.SeqQuery:
		put(w, m, func(w *writer, m node.SeqQuery) {
			w.uvarint(m.ID)
		})
	case node.Ping:
		w.tag(tagOf[node.Ping](messages))
	case node.CreateFragment:
		put(w, m, func(w *writer, m node.CreateFragment) {
			w.str(m.Name)
			w.schema(m.Schema)
			w.str(m.ClusterCol)
			w.int(m.PageRows)
		})
	case node.CreateIndex:
		put(w, m, func(w *writer, m node.CreateIndex) {
			w.str(m.Frag)
			w.str(m.Name)
			w.str(m.Col)
		})
	case node.CreateGlobalIndex:
		put(w, m, func(w *writer, m node.CreateGlobalIndex) {
			w.str(m.Name)
			w.bool(m.DistClustered)
		})
	case node.Insert:
		put(w, m, func(w *writer, m node.Insert) {
			w.str(m.Frag)
			w.tuples(m.Tuples)
			w.bool(m.Unmetered)
			w.uvarint(m.Epoch)
			w.uvarint(m.GCFloor)
		})
	case node.DeleteRows:
		put(w, m, func(w *writer, m node.DeleteRows) {
			w.str(m.Frag)
			w.rowIDs(m.Rows)
			w.uvarint(m.Epoch)
			w.uvarint(m.GCFloor)
		})
	case node.RestoreRows:
		put(w, m, func(w *writer, m node.RestoreRows) {
			w.str(m.Frag)
			w.rowIDs(m.Rows)
			w.tuples(m.Tuples)
			w.uvarint(m.Epoch)
			w.uvarint(m.GCFloor)
		})
	case node.DeleteMatch:
		put(w, m, func(w *writer, m node.DeleteMatch) {
			w.str(m.Frag)
			w.str(m.HintCol)
			w.tuples(m.Tuples)
			w.uvarint(m.Epoch)
			w.uvarint(m.GCFloor)
		})
	case node.LocateMatch:
		put(w, m, func(w *writer, m node.LocateMatch) {
			w.str(m.Frag)
			w.str(m.HintCol)
			w.tuples(m.Tuples)
		})
	case node.Probe:
		put(w, m, func(w *writer, m node.Probe) {
			w.str(m.Frag)
			w.str(m.FragCol)
			w.tuples(m.Delta)
			w.int(m.DeltaKey)
			w.byte(byte(m.Algo))
			w.f64(m.FanoutHint)
		})
	case node.FetchJoin:
		put(w, m, func(w *writer, m node.FetchJoin) {
			w.str(m.Frag)
			w.str(m.FragCol)
			w.rowIDs(m.Rows)
			w.tuple(m.Delta)
		})
	case node.FindMatching:
		put(w, m, func(w *writer, m node.FindMatching) {
			w.str(m.Frag)
			w.expr(m.Pred, depth+1)
		})
	case node.GIInsert:
		put(w, m, func(w *writer, m node.GIInsert) {
			w.str(m.GI)
			w.value(m.Val)
			w.gid(m.G)
		})
	case node.GIInsertBatch:
		put(w, m, func(w *writer, m node.GIInsertBatch) {
			w.str(m.GI)
			w.values(m.Vals)
			w.gids(m.Gs)
			w.bool(m.Metered)
			w.int32s(m.Sources)
		})
	case node.GIDelete:
		put(w, m, func(w *writer, m node.GIDelete) {
			w.str(m.GI)
			w.value(m.Val)
			w.gid(m.G)
		})
	case node.GIDeleteBatch:
		put(w, m, func(w *writer, m node.GIDeleteBatch) {
			w.str(m.GI)
			w.values(m.Vals)
			w.gids(m.Gs)
			w.int32s(m.Sources)
		})
	case node.GILookup:
		put(w, m, func(w *writer, m node.GILookup) {
			w.str(m.GI)
			w.value(m.Val)
		})
	case node.GILen:
		put(w, m, func(w *writer, m node.GILen) {
			w.str(m.GI)
		})
	case node.GIScan:
		put(w, m, func(w *writer, m node.GIScan) {
			w.str(m.GI)
		})
	case node.Scan:
		put(w, m, func(w *writer, m node.Scan) {
			w.str(m.Frag)
			w.uvarint(m.Epoch)
		})
	case node.AllRows:
		put(w, m, func(w *writer, m node.AllRows) {
			w.str(m.Frag)
			w.uvarint(m.Epoch)
		})
	case node.ScanWithRows:
		put(w, m, func(w *writer, m node.ScanWithRows) {
			w.str(m.Frag)
		})
	case node.AggApply:
		put(w, m, func(w *writer, m node.AggApply) {
			w.str(m.Frag)
			w.str(m.HintCol)
			w.int(m.GroupLen)
			w.int(m.CountPos)
			w.tuples(m.Keys)
			w.tuples(m.Deltas)
			w.uvarint(m.Epoch)
			w.uvarint(m.GCFloor)
		})
	case node.DropFragment:
		put(w, m, func(w *writer, m node.DropFragment) {
			w.str(m.Name)
		})
	case node.DropGlobalIndexFrag:
		put(w, m, func(w *writer, m node.DropGlobalIndexFrag) {
			w.str(m.Name)
		})
	case node.PromoteSlots:
		put(w, m, func(w *writer, m node.PromoteSlots) {
			w.str(m.Src)
			w.str(m.Dst)
			w.int(m.PartIdx)
			w.int(m.Mod)
			w.ints(m.Slots)
		})
	case node.GIPromoteSlots:
		put(w, m, func(w *writer, m node.GIPromoteSlots) {
			w.str(m.Src)
			w.str(m.Dst)
			w.int(m.Mod)
			w.ints(m.Slots)
		})
	case node.GIScrubNode:
		put(w, m, func(w *writer, m node.GIScrubNode) {
			w.str(m.GI)
			w.int(m.Node)
		})
	case node.FragInfo:
		put(w, m, func(w *writer, m node.FragInfo) {
			w.str(m.Frag)
		})
	case node.MeterSnapshot:
		w.tag(tagOf[node.MeterSnapshot](messages))
	case node.ResetMeter:
		w.tag(tagOf[node.ResetMeter](messages))
	case node.Prepare:
		put(w, m, func(w *writer, m node.Prepare) {
			w.uvarint(m.TID)
		})
	case node.Decide:
		put(w, m, func(w *writer, m node.Decide) {
			w.uvarint(m.TID)
			w.bool(m.Commit)
		})
	case node.ResolveAbort:
		put(w, m, func(w *writer, m node.ResolveAbort) {
			w.uvarint(m.TID)
		})
	case node.InDoubtReq:
		w.tag(tagOf[node.InDoubtReq](messages))
	case node.CheckpointReq:
		w.tag(tagOf[node.CheckpointReq](messages))
	case node.CrashReq:
		w.tag(tagOf[node.CrashReq](messages))
	case node.RestartReq:
		put(w, m, func(w *writer, m node.RestartReq) {

		})
	// Responses.
	case node.InsertResult:
		put(w, m, func(w *writer, m node.InsertResult) {
			w.rowIDs(m.Rows)
		})
	case node.DeleteResult:
		put(w, m, func(w *writer, m node.DeleteResult) {
			w.tuples(m.Tuples)
			w.rowIDs(m.Rows)
		})
	case node.RowsResult:
		put(w, m, func(w *writer, m node.RowsResult) {
			w.tuples(m.Tuples)
			w.rowIDs(m.Rows)
		})
	case node.Probed:
		put(w, m, func(w *writer, m node.Probed) {
			w.tuples(m.Tuples)
		})
	case node.GIDeleted:
		put(w, m, func(w *writer, m node.GIDeleted) {
			w.bool(m.OK)
		})
	case node.GIDeletedBatch:
		put(w, m, func(w *writer, m node.GIDeletedBatch) {
			w.bools(m.OK)
		})
	case node.GILenResult:
		put(w, m, func(w *writer, m node.GILenResult) {
			w.int(m.Len)
		})
	case node.GIScanResult:
		put(w, m, func(w *writer, m node.GIScanResult) {
			w.values(m.Vals)
			w.gids(m.Gs)
		})
	case node.GIRows:
		put(w, m, func(w *writer, m node.GIRows) {
			w.gids(m.IDs)
		})
	case node.PromoteResult:
		put(w, m, func(w *writer, m node.PromoteResult) {
			w.rowIDs(m.Rows)
			w.tuples(m.Tuples)
		})
	case node.GIScrubbed:
		put(w, m, func(w *writer, m node.GIScrubbed) {
			w.int(m.Removed)
		})
	case node.FragInfoResult:
		put(w, m, func(w *writer, m node.FragInfoResult) {
			w.int(m.Len)
			w.int(m.Pages)
		})
	case node.SeqQueryResult:
		put(w, m, func(w *writer, m node.SeqQueryResult) {
			w.bool(m.Applied)
			w.message(m.Resp, depth+1)
		})
	case node.InDoubtResult:
		put(w, m, func(w *writer, m node.InDoubtResult) {
			w.u64s(m.TIDs)
		})
	case node.CheckpointResult:
		put(w, m, func(w *writer, m node.CheckpointResult) {
			w.uvarint(m.LSN)
			w.int(m.Pages)
		})
	case node.RestartResult:
		put(w, m, func(w *writer, m node.RestartResult) {
			w.uvarint(m.CheckpointLSN)
			w.int(m.CheckpointPages)
			w.int(m.LogPagesRead)
			w.int(m.RecordsReplayed)
			w.u64s(m.InDoubt)
		})
	case storage.Counts:
		put(w, m, func(w *writer, m storage.Counts) {
			w.varint(m.Searches)
			w.varint(m.Fetches)
			w.varint(m.Inserts)
			w.varint(m.Deletes)
			w.varint(m.ScanPages)
			w.varint(m.SortPages)
			w.varint(m.LogPages)
		})
	case node.Ack:
		put(w, m, func(w *writer, m node.Ack) {

		})
	case string:
		put(w, m, func(w *writer, m string) {
			w.str(m)
		})
	default:
		w.fail(fmt.Errorf("tcp: cannot encode %T: not a message the codec knows", m))
	}
}

// reader decodes one frame body; the first error sticks, empties the
// input and turns every later read into a zero value. A connection keeps
// one for all its frames: the decoders take it through a function value,
// which moves it to the heap, so one per frame would cost an allocation.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("tcp: decode: "+format, args...)
	}
	r.b = nil
}

// done reports the first error, or trailing bytes after a whole body.
func (r *reader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the message", len(r.b))
	}
	return r.err
}

func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail("short input")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) bool() bool {
	switch c := r.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %d", c)
		return false
	}
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int { return int(r.varint()) }

func (r *reader) int32() int32 {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("%d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (r *reader) f64() float64 {
	if len(r.b) < 8 {
		r.fail("short float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a slice length whose elements take at least size bytes
// each, refusing one the remaining input cannot hold.
func (r *reader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) value() types.Value {
	v, n, err := types.DecodeValue(r.b)
	if err != nil {
		r.fail("%v", err)
		return types.Value{}
	}
	r.b = r.b[n:]
	return v
}

// tuple decodes one row; an empty one arrives as nil.
func (r *reader) tuple() types.Tuple {
	n, sz := binary.Uvarint(r.b)
	switch {
	case sz <= 0:
		r.fail("bad tuple count")
		return nil
	case n > uint64(len(r.b)-sz):
		r.fail("tuple of %d values in %d bytes", n, len(r.b)-sz)
		return nil
	case n == 0:
		r.b = r.b[sz:]
		return nil
	}
	t, used, err := types.DecodeTuple(r.b)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.b = r.b[used:]
	return t
}

func (r *reader) tuples() []types.Tuple {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ts := make([]types.Tuple, n)
	for i := range ts {
		ts[i] = r.tuple()
	}
	return ts
}

func (r *reader) values() []types.Value {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]types.Value, n)
	for i := range vs {
		vs[i] = r.value()
	}
	return vs
}

func (r *reader) rowIDs() []storage.RowID {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	rs := make([]storage.RowID, n)
	for i := range rs {
		rs[i] = storage.RowID(r.uvarint())
	}
	return rs
}

func (r *reader) gid() storage.GlobalRowID {
	return storage.GlobalRowID{Node: r.int32(), Row: storage.RowID(r.uvarint())}
}

func (r *reader) gids() []storage.GlobalRowID {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	gs := make([]storage.GlobalRowID, n)
	for i := range gs {
		gs[i] = r.gid()
	}
	return gs
}

func (r *reader) bools() []bool {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = r.bool()
	}
	return bs
}

func (r *reader) u64s() []uint64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	us := make([]uint64, n)
	for i := range us {
		us[i] = r.uvarint()
	}
	return us
}

func (r *reader) int32s() []int32 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = r.int32()
	}
	return xs
}

func (r *reader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.int()
	}
	return xs
}

func (r *reader) schema() *types.Schema {
	if !r.bool() {
		return nil
	}
	s := &types.Schema{}
	if n := r.count(2); n > 0 {
		s.Cols = make([]types.Column, n)
		for i := range s.Cols {
			s.Cols[i] = types.Column{Name: r.str(), Kind: types.Kind(r.byte())}
		}
	}
	return s
}

func (r *reader) expr(depth int) expr.Expr {
	if depth > maxDepth {
		r.fail("predicate nests deeper than %d", maxDepth)
		return nil
	}
	tag := int(r.byte())
	if tag == 0 || r.err != nil {
		return nil
	}
	if tag > len(exprs) {
		r.fail("predicate tag %d", tag)
		return nil
	}
	switch exprs[tag-1].(type) {
	case expr.Col:
		return expr.Col{Name: r.str()}
	case expr.Const:
		return expr.Const{V: r.value()}
	case expr.Cmp:
		op := expr.CmpOp(r.byte())
		return expr.Cmp{Op: op, L: r.expr(depth + 1), R: r.expr(depth + 1)}
	case expr.And:
		return expr.And{Terms: r.exprs(depth)}
	case expr.Or:
		return expr.Or{Terms: r.exprs(depth)}
	case expr.Not:
		return expr.Not{E: r.expr(depth + 1)}
	default:
		r.fail("no decoder for predicate %T", exprs[tag-1])
		return nil
	}
}

func (r *reader) exprs(depth int) []expr.Expr {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	es := make([]expr.Expr, n)
	for i := range es {
		es[i] = r.expr(depth + 1)
	}
	return es
}

// message reads one tagged message.
func (r *reader) message(depth int) any {
	if depth > maxDepth {
		r.fail("message nests deeper than %d", maxDepth)
		return nil
	}
	tag := int(r.byte())
	if tag == 0 || r.err != nil {
		return nil
	}
	if tag > len(decoders) || decoders[tag-1] == nil {
		r.fail("message tag %d", tag)
		return nil
	}
	return decoders[tag-1](r, depth)
}

// decoders holds, at a message's tag minus one, the function that reads
// its fields (built by init from decoderOf). Each is a function of its
// own, so the frame of message stays small and a call from a fresh
// goroutine does not grow the stack.
var decoders []func(r *reader, depth int) any

// decoderOf returns the decoder of zero's type; nil for a type it does
// not know, which the round-trip test catches.
func decoderOf(zero any) func(r *reader, depth int) any {
	switch zero.(type) {
	// Requests.
	case node.Seq:
		return func(r *reader, depth int) any {
			return node.Seq{ID: r.uvarint(), TID: r.uvarint(), Req: r.message(depth + 1)}
		}
	case node.SeqQuery:
		return func(r *reader, depth int) any {
			return node.SeqQuery{ID: r.uvarint()}
		}
	case node.Ping:
		return func(*reader, int) any { return node.Ping{} }
	case node.CreateFragment:
		return func(r *reader, depth int) any {
			return node.CreateFragment{Name: r.str(), Schema: r.schema(), ClusterCol: r.str(), PageRows: r.int()}
		}
	case node.CreateIndex:
		return func(r *reader, depth int) any {
			return node.CreateIndex{Frag: r.str(), Name: r.str(), Col: r.str()}
		}
	case node.CreateGlobalIndex:
		return func(r *reader, depth int) any {
			return node.CreateGlobalIndex{Name: r.str(), DistClustered: r.bool()}
		}
	case node.Insert:
		return func(r *reader, depth int) any {
			return node.Insert{Frag: r.str(), Tuples: r.tuples(), Unmetered: r.bool(), Epoch: r.uvarint(), GCFloor: r.uvarint()}
		}
	case node.DeleteRows:
		return func(r *reader, depth int) any {
			return node.DeleteRows{Frag: r.str(), Rows: r.rowIDs(), Epoch: r.uvarint(), GCFloor: r.uvarint()}
		}
	case node.RestoreRows:
		return func(r *reader, depth int) any {
			return node.RestoreRows{Frag: r.str(), Rows: r.rowIDs(), Tuples: r.tuples(), Epoch: r.uvarint(), GCFloor: r.uvarint()}
		}
	case node.DeleteMatch:
		return func(r *reader, depth int) any {
			return node.DeleteMatch{Frag: r.str(), HintCol: r.str(), Tuples: r.tuples(), Epoch: r.uvarint(), GCFloor: r.uvarint()}
		}
	case node.LocateMatch:
		return func(r *reader, depth int) any {
			return node.LocateMatch{Frag: r.str(), HintCol: r.str(), Tuples: r.tuples()}
		}
	case node.Probe:
		return func(r *reader, depth int) any {
			return node.Probe{Frag: r.str(), FragCol: r.str(), Delta: r.tuples(), DeltaKey: r.int(), Algo: node.Algo(r.byte()), FanoutHint: r.f64()}
		}
	case node.FetchJoin:
		return func(r *reader, depth int) any {
			return node.FetchJoin{Frag: r.str(), FragCol: r.str(), Rows: r.rowIDs(), Delta: r.tuple()}
		}
	case node.FindMatching:
		return func(r *reader, depth int) any {
			return node.FindMatching{Frag: r.str(), Pred: r.expr(depth + 1)}
		}
	case node.GIInsert:
		return func(r *reader, depth int) any {
			return node.GIInsert{GI: r.str(), Val: r.value(), G: r.gid()}
		}
	case node.GIInsertBatch:
		return func(r *reader, depth int) any {
			return node.GIInsertBatch{GI: r.str(), Vals: r.values(), Gs: r.gids(), Metered: r.bool(), Sources: r.int32s()}
		}
	case node.GIDelete:
		return func(r *reader, depth int) any {
			return node.GIDelete{GI: r.str(), Val: r.value(), G: r.gid()}
		}
	case node.GIDeleteBatch:
		return func(r *reader, depth int) any {
			return node.GIDeleteBatch{GI: r.str(), Vals: r.values(), Gs: r.gids(), Sources: r.int32s()}
		}
	case node.GILookup:
		return func(r *reader, depth int) any {
			return node.GILookup{GI: r.str(), Val: r.value()}
		}
	case node.GILen:
		return func(r *reader, depth int) any {
			return node.GILen{GI: r.str()}
		}
	case node.GIScan:
		return func(r *reader, depth int) any {
			return node.GIScan{GI: r.str()}
		}
	case node.Scan:
		return func(r *reader, depth int) any {
			return node.Scan{Frag: r.str(), Epoch: r.uvarint()}
		}
	case node.AllRows:
		return func(r *reader, depth int) any {
			return node.AllRows{Frag: r.str(), Epoch: r.uvarint()}
		}
	case node.ScanWithRows:
		return func(r *reader, depth int) any {
			return node.ScanWithRows{Frag: r.str()}
		}
	case node.AggApply:
		return func(r *reader, depth int) any {
			return node.AggApply{Frag: r.str(), HintCol: r.str(), GroupLen: r.int(), CountPos: r.int(),
				Keys: r.tuples(), Deltas: r.tuples(), Epoch: r.uvarint(), GCFloor: r.uvarint()}
		}
	case node.DropFragment:
		return func(r *reader, depth int) any {
			return node.DropFragment{Name: r.str()}
		}
	case node.DropGlobalIndexFrag:
		return func(r *reader, depth int) any {
			return node.DropGlobalIndexFrag{Name: r.str()}
		}
	case node.PromoteSlots:
		return func(r *reader, depth int) any {
			return node.PromoteSlots{Src: r.str(), Dst: r.str(), PartIdx: r.int(), Mod: r.int(), Slots: r.ints()}
		}
	case node.GIPromoteSlots:
		return func(r *reader, depth int) any {
			return node.GIPromoteSlots{Src: r.str(), Dst: r.str(), Mod: r.int(), Slots: r.ints()}
		}
	case node.GIScrubNode:
		return func(r *reader, depth int) any {
			return node.GIScrubNode{GI: r.str(), Node: r.int()}
		}
	case node.FragInfo:
		return func(r *reader, depth int) any {
			return node.FragInfo{Frag: r.str()}
		}
	case node.MeterSnapshot:
		return func(*reader, int) any { return node.MeterSnapshot{} }
	case node.ResetMeter:
		return func(*reader, int) any { return node.ResetMeter{} }
	case node.Prepare:
		return func(r *reader, depth int) any {
			return node.Prepare{TID: r.uvarint()}
		}
	case node.Decide:
		return func(r *reader, depth int) any {
			return node.Decide{TID: r.uvarint(), Commit: r.bool()}
		}
	case node.ResolveAbort:
		return func(r *reader, depth int) any {
			return node.ResolveAbort{TID: r.uvarint()}
		}
	case node.InDoubtReq:
		return func(*reader, int) any { return node.InDoubtReq{} }
	case node.CheckpointReq:
		return func(*reader, int) any { return node.CheckpointReq{} }
	case node.CrashReq:
		return func(*reader, int) any { return node.CrashReq{} }
	case node.RestartReq:
		return func(*reader, int) any { return node.RestartReq{} }

	// Responses.
	case node.InsertResult:
		return func(r *reader, depth int) any {
			return node.InsertResult{Rows: r.rowIDs()}
		}
	case node.DeleteResult:
		return func(r *reader, depth int) any {
			return node.DeleteResult{Tuples: r.tuples(), Rows: r.rowIDs()}
		}
	case node.RowsResult:
		return func(r *reader, depth int) any {
			return node.RowsResult{Tuples: r.tuples(), Rows: r.rowIDs()}
		}
	case node.Probed:
		return func(r *reader, depth int) any {
			return node.Probed{Tuples: r.tuples()}
		}
	case node.GIDeleted:
		return func(r *reader, depth int) any {
			return node.GIDeleted{OK: r.bool()}
		}
	case node.GIDeletedBatch:
		return func(r *reader, depth int) any {
			return node.GIDeletedBatch{OK: r.bools()}
		}
	case node.GILenResult:
		return func(r *reader, depth int) any {
			return node.GILenResult{Len: r.int()}
		}
	case node.GIScanResult:
		return func(r *reader, depth int) any {
			return node.GIScanResult{Vals: r.values(), Gs: r.gids()}
		}
	case node.GIRows:
		return func(r *reader, depth int) any {
			return node.GIRows{IDs: r.gids()}
		}
	case node.PromoteResult:
		return func(r *reader, depth int) any {
			return node.PromoteResult{Rows: r.rowIDs(), Tuples: r.tuples()}
		}
	case node.GIScrubbed:
		return func(r *reader, depth int) any {
			return node.GIScrubbed{Removed: r.int()}
		}
	case node.FragInfoResult:
		return func(r *reader, depth int) any {
			return node.FragInfoResult{Len: r.int(), Pages: r.int()}
		}
	case node.SeqQueryResult:
		return func(r *reader, depth int) any {
			return node.SeqQueryResult{Applied: r.bool(), Resp: r.message(depth + 1)}
		}
	case node.InDoubtResult:
		return func(r *reader, depth int) any {
			return node.InDoubtResult{TIDs: r.u64s()}
		}
	case node.CheckpointResult:
		return func(r *reader, depth int) any {
			return node.CheckpointResult{LSN: r.uvarint(), Pages: r.int()}
		}
	case node.RestartResult:
		return func(r *reader, depth int) any {
			return node.RestartResult{CheckpointLSN: r.uvarint(), CheckpointPages: r.int(), LogPagesRead: r.int(),
				RecordsReplayed: r.int(), InDoubt: r.u64s()}
		}
	case storage.Counts:
		return func(r *reader, depth int) any {
			return storage.Counts{Searches: r.varint(), Fetches: r.varint(), Inserts: r.varint(), Deletes: r.varint(),
				ScanPages: r.varint(), SortPages: r.varint(), LogPages: r.varint()}
		}
	case node.Ack:
		return func(*reader, int) any { return node.Ack{} }

	case string:
		return func(r *reader, _ int) any { return r.str() }
	}
	return nil
}

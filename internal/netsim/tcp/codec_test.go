package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

var (
	valueType = reflect.TypeOf(types.Value{})
	exprType  = reflect.TypeOf((*expr.Expr)(nil)).Elem()
	anyType   = reflect.TypeOf((*any)(nil)).Elem()
)

// filler sets every field of a message to random contents: rows of every
// kind (NULL, ±0, ±Inf, extreme integers, empty and non-ASCII strings),
// nil, empty and filled slices, nested messages and predicate trees. It
// walks the type by reflection, so a field added to a message is filled
// too, and a kind it cannot fill fails the test.
type filler struct {
	tb  testing.TB
	rng *rand.Rand
}

func (f filler) fill(v reflect.Value, depth int) {
	switch v.Type() {
	case valueType:
		v.Set(reflect.ValueOf(f.value()))
		return
	case exprType:
		if depth < 4 && f.rng.Intn(4) > 0 {
			e := reflect.New(reflect.TypeOf(exprs[f.rng.Intn(len(exprs))])).Elem()
			f.fill(e, depth+1)
			v.Set(e)
		}
		return
	case anyType:
		if depth < 3 && f.rng.Intn(4) > 0 {
			v.Set(f.message(messages[f.rng.Intn(len(messages))], depth+1))
		}
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), depth)
		}
	case reflect.Slice:
		switch f.rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + f.rng.Intn(4)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < s.Len(); i++ {
				f.fill(s.Index(i), depth)
			}
			v.Set(s)
		}
	case reflect.Pointer:
		if f.rng.Intn(3) > 0 {
			p := reflect.New(v.Type().Elem())
			f.fill(p.Elem(), depth)
			v.Set(p)
		}
	case reflect.String:
		v.SetString(f.str())
	case reflect.Bool:
		v.SetBool(f.rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(f.int() >> (64 - v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.int()) >> (64 - v.Type().Bits()))
	case reflect.Float64:
		v.SetFloat(f.float())
	default:
		f.tb.Fatalf("filler: no rule for %s (kind %s)", v.Type(), v.Kind())
	}
}

// message returns a random message of zero's type.
func (f filler) message(zero any, depth int) reflect.Value {
	m := reflect.New(reflect.TypeOf(zero)).Elem()
	f.fill(m, depth)
	return m
}

func (f filler) int() int64 {
	switch f.rng.Intn(4) {
	case 0:
		return int64(f.rng.Intn(5)) - 2
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	}
	return int64(f.rng.Uint64())
}

func (f filler) float() float64 {
	return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.25e300, 5e-324}[f.rng.Intn(7)]
}

func (f filler) str() string {
	return []string{"", "a", "node 1: fragment \"f\"", "ünïcødé ☃", strings.Repeat("x", 300)}[f.rng.Intn(5)]
}

func (f filler) value() types.Value {
	switch f.rng.Intn(4) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(f.int())
	case 2:
		return types.Float(f.float())
	}
	return types.String(f.str())
}

// canonical is what a message looks like after a trip through the codec:
// every empty slice is nil, and a float -0 inside a row value is +0.
func canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == valueType {
			if val := v.Interface().(types.Value); val.K == types.KindFloat && val.F == 0 {
				v.Set(reflect.ValueOf(types.Float(0)))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			canonical(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			canonical(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			canonical(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			c := reflect.New(v.Elem().Type()).Elem()
			c.Set(v.Elem())
			canonical(c)
			v.Set(c)
		}
	}
}

func canonicalOf(m any) any {
	v := reflect.New(anyType).Elem()
	if m != nil {
		v.Set(reflect.ValueOf(m))
	}
	canonical(v)
	return v.Interface()
}

// decode decodes a request body.
func decode(body []byte) (any, error) { return (&reader{}).request(body) }

// roundTrip sends m through a request frame and back.
func roundTrip(t *testing.T, m any) any {
	t.Helper()
	var w writer
	frame, err := w.request(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := decode(frame[4:])
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return got
}

// TestCodecRoundTripsEveryMessage: every request and response type, zero
// and randomly filled, arrives as the message that was sent, up to the
// codec's two rules (empty slices arrive nil, -0 in a row arrives +0).
func TestCodecRoundTripsEveryMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := filler{tb: t, rng: rng}
	for _, zero := range messages {
		t.Run(fmt.Sprintf("%T", zero), func(t *testing.T) {
			if got := roundTrip(t, zero); !reflect.DeepEqual(got, canonicalOf(zero)) {
				t.Fatalf("zero value: got %#v, want %#v", got, zero)
			}
			for i := 0; i < 200; i++ {
				m := f.message(zero, 0).Interface()
				want := canonicalOf(m)
				if got := roundTrip(t, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d:\n got %#v\nwant %#v", i, got, want)
				}
			}
		})
	}
	if got := roundTrip(t, nil); got != nil {
		t.Errorf("nil arrives as %#v", got)
	}
}

// TestCodecEmptySliceArrivesNil pins the nil/empty rule on its own: nil
// and empty slices both arrive nil, at the top of a message and inside a
// row list alike.
func TestCodecEmptySliceArrivesNil(t *testing.T) {
	for _, m := range []node.Insert{
		{Frag: "f"},
		{Frag: "f", Tuples: []types.Tuple{}},
	} {
		if got := roundTrip(t, m).(node.Insert); got.Tuples != nil {
			t.Errorf("%#v arrives with Tuples %#v, want nil", m.Tuples, got.Tuples)
		}
	}
	got := roundTrip(t, node.Probed{Tuples: []types.Tuple{{}, nil, {types.Int(1)}}}).(node.Probed)
	if got.Tuples[0] != nil || got.Tuples[1] != nil || len(got.Tuples[2]) != 1 {
		t.Errorf("rows arrive as %#v, want nil, nil, one value", got.Tuples)
	}
}

func TestCodecRefusesUnknownTypes(t *testing.T) {
	type unregistered struct{ X int }
	for _, m := range []any{unregistered{1}, 7, node.Seq{Req: unregistered{1}},
		node.Scan{Pred: badExpr{}}, node.SeqQueryResult{Resp: 3.5}} {
		var w writer
		if out, err := w.request(m); err == nil || out != nil {
			t.Errorf("%#v: got %q, %v; want an error and no frame", m, out, err)
		}
	}
	var w writer
	if _, err := w.request(nested(maxDepth + 2)); err == nil {
		t.Error("a message nested past maxDepth must be refused")
	}
}

type badExpr struct{ expr.Col }

func nested(n int) any {
	var m any = node.Ping{}
	for i := 0; i < n; i++ {
		m = node.Seq{ID: uint64(i), Req: m}
	}
	return m
}

// TestCodecResponses: a result and each kind of handler error survive
// the response frame.
func TestCodecResponses(t *testing.T) {
	decode := func(resp any, herr error) (any, error) {
		var w writer
		frame, err := w.response(resp, herr)
		if err != nil {
			t.Fatal(err)
		}
		return (&reader{}).response(frame[4:])
	}
	if got, err := decode(node.InsertResult{Rows: nil}, nil); err != nil || !reflect.DeepEqual(got, node.InsertResult{}) {
		t.Errorf("result: %#v, %v", got, err)
	}
	_, err := decode(nil, fmt.Errorf("node 2: %w", node.ErrNoFragment))
	var we *wireError
	if !errors.As(err, &we) || !errors.Is(err, node.ErrNoFragment) || err.Error() != "node 2: "+node.ErrNoFragment.Error() {
		t.Errorf("sentinel error arrives as %v", err)
	}
	if _, err := decode(nil, errors.New("plain")); !errors.As(err, &we) || errors.Is(err, node.ErrNoFragment) || err.Error() != "plain" {
		t.Errorf("plain error arrives as %v", err)
	}
	for _, body := range [][]byte{{}, {2}, {statusErr, byte(len(sentinels) + 1), 0}, {statusErr, 0}} {
		if _, err := (&reader{}).response(body); err == nil || errors.As(err, &we) {
			t.Errorf("corrupt response %v: got %v, want a decode error", body, err)
		}
	}
}

// TestCodecRejectsTruncatedAndCorrupt: every strict prefix of a valid
// body, a trailing byte, an unknown tag and a count the body cannot hold
// are errors.
func TestCodecRejectsTruncatedAndCorrupt(t *testing.T) {
	f := filler{tb: t, rng: rand.New(rand.NewSource(2))}
	for _, zero := range messages {
		var w writer
		frame, err := w.request(f.message(zero, 0).Interface())
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		for n := 0; n < len(body); n++ {
			if m, err := decode(body[:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of %d decoded as %#v", zero, n, len(body), m)
			}
		}
		if _, err := decode(append(body[:len(body):len(body)], 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", zero)
		}
	}
	huge := []byte{tagOf[node.Insert](messages), 1, 'f', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for _, body := range [][]byte{{byte(len(messages) + 1)}, huge,
		{tagOf[node.Probed](messages), 1, 0xff, 0xff, 0xff, 0x0f, 1}, // one row claiming 2^32 values
		{tagOf[node.Scan](messages), 0, 0, 0, 2},                     // Unmetered bool byte 2
		{tagOf[node.Scan](messages), 0, 0, byte(len(exprs) + 1), 0},  // Pred tag past exprs
	} {
		if m, err := decode(body); err == nil {
			t.Errorf("corrupt body %v decoded as %#v", body, m)
		}
	}
}

// FuzzDecodeMessage: no input makes the decoders panic; a body that
// decodes re-encodes to one that decodes to the same bytes again, and
// loses its validity when truncated by one byte.
func FuzzDecodeMessage(f *testing.F) {
	fl := filler{tb: f, rng: rand.New(rand.NewSource(3))}
	for _, zero := range messages {
		for _, m := range []any{zero, fl.message(zero, 0).Interface()} {
			var w writer
			frame, err := w.request(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame[4:])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		(&reader{}).response(body)
		m, err := decode(body)
		if err != nil {
			return
		}
		var w1, w2 writer
		again, err := w1.request(m)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", m, err)
		}
		m2, err := decode(again[4:])
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", m, err)
		}
		if third, _ := w2.request(m2); !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %x then %x", again, third)
		}
		if _, err := decode(body[:len(body)-1]); err == nil {
			t.Fatalf("%x decodes with its last byte cut", body)
		}
	})
}

// BenchmarkCodecInsertPair encodes and decodes one sequenced single-row
// insert and its result, the envelope pair a trickle write sends most.
func BenchmarkCodecInsertPair(b *testing.B) {
	row := types.Tuple{types.Int(1), types.Int(2), types.Int(3), types.String("customer#000001"),
		types.Float(1.5), types.Int(6), types.String("BUILDING"), types.Float(-2.25)}
	var req any = node.Seq{ID: 7, TID: 3, Req: node.Insert{Frag: "orders", Tuples: []types.Tuple{row}, Epoch: 9}}
	var resp any = node.InsertResult{Rows: []storage.RowID{42}}
	var w writer
	var r reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := w.request(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.request(frame[4:]); err != nil {
			b.Fatal(err)
		}
		if frame, err = w.response(resp, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := r.response(frame[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameReaderGrowsWithTheStream: a frame longer than keepBuf reads
// whole, and a length the stream does not back fails without allocating
// more than keepBuf past the bytes that came.
func TestFrameReaderGrowsWithTheStream(t *testing.T) {
	body := bytes.Repeat([]byte("row"), keepBuf) // three chunks
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	f := frameReader{r: bufio.NewReader(bytes.NewReader(append(frame, body...)))}
	if got, err := f.next(); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("long frame: %d bytes, %v", len(got), err)
	}
	lying := append(binary.BigEndian.AppendUint32(nil, maxFrame), "short"...)
	f = frameReader{r: bufio.NewReader(bytes.NewReader(lying))}
	if _, err := f.next(); err == nil || cap(f.buf) > keepBuf {
		t.Fatalf("lying length: %v with a %d-byte buffer", err, cap(f.buf))
	}
	huge := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	f = frameReader{r: bufio.NewReader(bytes.NewReader(huge))}
	if _, err := f.next(); err == nil {
		t.Fatal("a frame past maxFrame must be refused")
	}
}

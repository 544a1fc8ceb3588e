package types

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(-5), Int(5), -1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{String("ba"), String("b"), 1},
		{Null(), Int(0), -1},
		{Null(), Null(), 0},
		{Int(1), Float(1), -1}, // kind ordering: int < float
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"BIGINT": KindInt, "int": KindInt, "Integer": KindInt,
		"DOUBLE": KindFloat, "float": KindFloat,
		"VARCHAR": KindString, "text": KindString,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("BLOB"); err == nil {
		t.Error("KindFromName(BLOB) should fail")
	}
}

func TestHashEqualValues(t *testing.T) {
	if Int(42).Hash() != Int(42).Hash() {
		t.Error("equal ints must hash equally")
	}
	if String("x").Hash() != String("x").Hash() {
		t.Error("equal strings must hash equally")
	}
	if Int(42).Hash() == Int(43).Hash() {
		t.Error("distinct ints should not collide (sanity)")
	}
	if Int(0).Hash() == Float(0).Hash() {
		t.Error("kind participates in the hash")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(-0.5), Float(3.25), Float(math.MaxFloat64), Float(-math.MaxFloat64),
		String(""), String("hello"), String("naïve ⋈"),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if _, m, err := DecodeValue(append(enc, 0xff)); err != nil || m != n {
			t.Errorf("DecodeValue(%v + trailing byte) consumed %d, %v; want %d", v, m, err, n)
		}
		if !Equal(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// Property: the key encoding is order-preserving within a kind, so bytewise
// comparison of encoded keys agrees with Compare.
func TestEncodingOrderPreservingInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := EncodeKey(Int(a)), EncodeKey(Int(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Int(a), Int(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodingOrderPreservingFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka, kb := EncodeKey(Float(a)), EncodeKey(Float(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Float(a), Float(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// quick.Check never draws the signed zeros: pin them. Equal holds for
	// -0 and +0, so their keys and hashes must be the same too.
	negZero := math.Copysign(0, -1)
	for _, pair := range [][2]float64{{negZero, 0}, {0, negZero}, {negZero, negZero}} {
		if !f(pair[0], pair[1]) {
			t.Errorf("key order of %v vs %v disagrees with Compare", pair[0], pair[1])
		}
	}
	if !bytes.Equal(EncodeKey(Float(negZero)), EncodeKey(Float(0))) {
		t.Error("-0 and +0 are Equal but encode differently")
	}
	if Float(negZero).Hash() != Float(0).Hash() {
		t.Error("-0 and +0 are Equal but hash differently")
	}
	if got, _, _ := DecodeValue(EncodeKey(Float(negZero))); math.Signbit(got.F) {
		t.Error("-0 must decode as +0")
	}
	for _, v := range []float64{-1, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 1} {
		if c := bytes.Compare(EncodeKey(Float(v)), EncodeKey(Float(negZero))); c != sign(Compare(Float(v), Float(0))) {
			t.Errorf("key of %v vs -0 orders %d", v, c)
		}
	}
}

// TestEqualValuesEqualBytes: two storable values are Equal exactly when
// their encodings are the same bytes, and Equal values hash equally.
// Scans find runs of equal cluster keys by comparing bytes, and hash
// partitioning must send equal values to one node.
func TestEqualValuesEqualBytes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []Value{
		Null(), Int(0), Int(-1), Int(1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(negZero), Float(-1.5), Float(1.5), Float(math.Inf(1)), Float(math.Inf(-1)),
		String(""), String("a"), String("ab"), String("a\x00"), String("é"),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		pool = append(pool, Int(rng.Int63n(5)-2), Float(float64(rng.Intn(5)-2)/2), String(string(rune('a'+rng.Intn(3)))))
	}
	s := NewSchema(Column{Name: "v", Kind: KindFloat})
	for _, a := range pool {
		for _, b := range pool {
			eq, sameBytes := Equal(a, b), bytes.Equal(EncodeKey(a), EncodeKey(b))
			if eq != sameBytes {
				t.Fatalf("Equal(%#v, %#v) = %v but equal bytes = %v", a, b, eq, sameBytes)
			}
			if eq && a.Hash() != b.Hash() {
				t.Fatalf("Equal(%#v, %#v) but hashes differ", a, b)
			}
		}
	}
	if err := s.Validate(Tuple{Float(math.NaN())}); err == nil {
		t.Error("Validate must reject NaN: it is Equal to every float, so no byte run can hold it")
	}
	if err := s.Validate(Tuple{Float(negZero)}); err != nil {
		t.Errorf("Validate(-0) = %v", err)
	}
}

func TestEncodingOrderPreservingSortedInts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(Int(v))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := range vals {
		got, _, err := DecodeValue(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.I != vals[i] {
			t.Fatalf("sorted key %d decodes to %d, want %d", i, got.I, vals[i])
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		if math.IsNaN(fl) {
			return true
		}
		in := Tuple{Int(i), Float(fl), String(s), Null()}
		enc := EncodeTuple(in)
		out, n, err := DecodeTuple(enc)
		return err == nil && n == len(enc) && out.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decode empty value should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("decode short int should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 200}); err == nil {
		t.Error("decode truncated string should fail")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("decode unknown kind should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString)}); err == nil {
		t.Error("decode string without length should fail")
	}
	if _, _, err := DecodeTuple([]byte{}); err == nil {
		t.Error("decode empty tuple should fail")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestDecodeColsMatchesDecodeTuple: on random tuples, DecodeCols of an
// ascending column subset sets exactly those columns to DecodeTuple's
// values, and TupleCol returns each column's own key bytes. Malformed
// column lists and truncated tuples are errors.
func TestDecodeColsMatchesDecodeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Null()
		case 1:
			return Int(rng.Int63n(2000) - 1000)
		case 2:
			return Float(rng.NormFloat64())
		}
		b := make([]byte, rng.Intn(200)) // long enough for a 2-byte length
		rng.Read(b)
		return String(string(b))
	}
	for i := 0; i < 500; i++ {
		tup := make(Tuple, 1+rng.Intn(6))
		for j := range tup {
			tup[j] = draw()
		}
		enc := EncodeTuple(tup)
		var cols []int
		for j := range tup {
			if rng.Intn(2) == 0 {
				cols = append(cols, j)
			}
		}
		got := make(Tuple, len(tup))
		if err := DecodeCols(enc, cols, got); err != nil {
			t.Fatalf("DecodeCols(%v, %v): %v", tup, cols, err)
		}
		want := make(Tuple, len(tup))
		for _, c := range cols {
			want[c] = tup[c]
		}
		for j := range tup {
			if got[j].K != want[j].K || !Equal(got[j], want[j]) {
				t.Fatalf("DecodeCols(%v, %v) = %v, want %v", tup, cols, got, want)
			}
			col, err := TupleCol(enc, j)
			if err != nil || !bytes.Equal(col, EncodeKey(tup[j])) {
				t.Fatalf("TupleCol(%v, %d) = %x, %v; want %x", tup, j, col, err, EncodeKey(tup[j]))
			}
		}
	}
	enc := EncodeTuple(Tuple{Int(1), String("ab"), Float(2)})
	scratch := make(Tuple, 4)
	for _, cols := range [][]int{{1, 0}, {1, 1}, {3}, {-1}} {
		if err := DecodeCols(enc, cols, scratch); err == nil {
			t.Errorf("DecodeCols(%v) should fail", cols)
		}
	}
	for _, i := range []int{-1, 3} {
		if _, err := TupleCol(enc, i); err == nil {
			t.Errorf("TupleCol(%d) should fail", i)
		}
	}
	if err := DecodeCols(enc[:len(enc)-1], []int{2}, scratch); err == nil {
		t.Error("DecodeCols of a truncated tuple should fail")
	}
	if _, err := TupleCol(enc[:4], 1); err == nil {
		t.Error("TupleCol of a truncated tuple should fail")
	}
	if _, err := TupleCol(nil, 0); err == nil {
		t.Error("TupleCol without a count prefix should fail")
	}
}

package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary row format, used for index keys and page storage:
//
//	value := kind(1) payload
//	  int    -> order-preserving big-endian uint64 (sign bit flipped)
//	  float  -> order-preserving big-endian encoding of IEEE-754 bits
//	            (-0 encodes as +0)
//	  string -> uvarint length + bytes
//	tuple := count(uvarint) value*
//
// Integer and float payloads are encoded so that bytewise comparison of two
// encoded values of the same kind matches Compare; B+-tree keys exploit this.
// Equal values (NaN aside, which Schema.Validate keeps out of storage)
// encode to equal bytes, so a scan can find a run of equal keys by
// comparing bytes.

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		dst = append(dst, b[:]...)
	case KindFloat:
		bits := canonicalFloatBits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // positive: flip sign bit
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		dst = append(dst, b[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	start, end, err := valueSpan(b)
	if err != nil {
		return Value{}, 0, err
	}
	switch Kind(b[0]) {
	case KindInt:
		u := binary.BigEndian.Uint64(b[start:end]) ^ (1 << 63)
		return Int(int64(u)), end, nil
	case KindFloat:
		bits := binary.BigEndian.Uint64(b[start:end])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), end, nil
	case KindString:
		return String(string(b[start:end])), end, nil
	default: // KindNull
		return Value{}, end, nil
	}
}

// valueSpan returns where the payload of the value encoded at the start of
// b begins and where the value ends, reading only its kind and length. It
// is the one place each kind's size rule lives: DecodeValue reads the
// payload it finds, and the column readers below step over values with it.
func valueSpan(b []byte) (start, end int, err error) {
	if len(b) == 0 {
		return 0, 0, fmt.Errorf("types: decode value: empty input")
	}
	switch k := Kind(b[0]); k {
	case KindNull:
		return 1, 1, nil
	case KindInt, KindFloat:
		if len(b) < 9 {
			return 0, 0, fmt.Errorf("types: decode %v: short input (%d bytes)", k, len(b))
		}
		return 1, 9, nil
	case KindString:
		n, sz := binary.Uvarint(b[1:])
		if sz <= 0 {
			return 0, 0, fmt.Errorf("types: decode string: bad length prefix")
		}
		start = 1 + sz
		end = start + int(n)
		if end > len(b) || end < start {
			return 0, 0, fmt.Errorf("types: decode string: short input (want %d bytes, have %d)", end, len(b))
		}
		return start, end, nil
	default:
		return 0, 0, fmt.Errorf("types: decode: unknown kind %d", b[0])
	}
}

// EncodeKey encodes a single value as an order-preserving index key.
func EncodeKey(v Value) []byte { return AppendValue(nil, v) }

// AppendTuple appends the binary encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodeTuple encodes a tuple into a fresh byte slice.
func EncodeTuple(t Tuple) []byte { return AppendTuple(nil, t) }

// DecodeTuple decodes a tuple from b, returning it and the bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	n, off, err := tupleCount(b)
	if err != nil {
		return nil, 0, err
	}
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple value %d: %w", i, err)
		}
		t = append(t, v)
		off += used
	}
	return t, off, nil
}

// DecodeCols decodes columns cols (ascending) of the encoded tuple b into
// t, each at its own position, and leaves t's other columns as they are. It
// steps over the columns between them without decoding (or allocating)
// them, and reads nothing after the last.
func DecodeCols(b []byte, cols []int, t Tuple) error {
	n, off, err := tupleCount(b)
	if err != nil {
		return err
	}
	next := 0
	for _, c := range cols {
		if c < next || uint64(c) >= n {
			return fmt.Errorf("types: decode columns %v: not ascending columns of a %d-tuple", cols, n)
		}
		if off, err = skipValues(b, off, c-next); err != nil {
			return err
		}
		v, used, err := DecodeValue(b[off:])
		if err != nil {
			return fmt.Errorf("types: decode tuple value %d: %w", c, err)
		}
		t[c], off, next = v, off+used, c+1
	}
	return nil
}

// TupleCol returns the encoded bytes of column i inside the encoded tuple
// b, without decoding any value.
func TupleCol(b []byte, i int) ([]byte, error) {
	n, off, err := tupleCount(b)
	if err != nil {
		return nil, err
	}
	if i < 0 || uint64(i) >= n {
		return nil, fmt.Errorf("types: column %d of a %d-tuple", i, n)
	}
	if off, err = skipValues(b, off, i); err != nil {
		return nil, err
	}
	_, end, err := valueSpan(b[off:])
	if err != nil {
		return nil, fmt.Errorf("types: decode tuple value %d: %w", i, err)
	}
	return b[off : off+end : off+end], nil
}

// tupleCount reads an encoded tuple's count prefix, returning the count and
// the offset of its first value.
func tupleCount(b []byte) (uint64, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("types: decode tuple: bad count prefix")
	}
	return n, sz, nil
}

// skipValues returns the offset in the encoded tuple b that lies n values
// past off.
func skipValues(b []byte, off, n int) (int, error) {
	for ; n > 0; n-- {
		_, end, err := valueSpan(b[off:])
		if err != nil {
			return 0, err
		}
		off += end
	}
	return off, nil
}

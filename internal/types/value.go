// Package types defines the value, tuple and schema primitives shared by
// every layer of the parallel RDBMS: storage fragments, indexes, the
// executor, the network simulator and the view-maintenance strategies.
//
// Values are small concrete structs (not interfaces) so tuples can be
// compared, hashed and binary-encoded without allocation-heavy type
// switches on hot maintenance paths.
package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name ("BIGINT", "INT", "DOUBLE", "FLOAT",
// "VARCHAR", "TEXT") into a Kind. The match is case-insensitive.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "BIGINT", "INT", "INTEGER":
		return KindInt, nil
	case "DOUBLE", "FLOAT", "DECIMAL", "REAL":
		return KindFloat, nil
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return KindString, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// String returns a string value.
func String(v string) Value { return Value{K: KindString, S: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// GoString renders the value for debugging and shell output.
func (v Value) GoString() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return v.S
	default:
		return fmt.Sprintf("?kind%d", v.K)
	}
}

// Compare orders two values. NULL sorts before everything; values of
// different kinds order by kind; otherwise by natural order. It returns
// -1, 0 or +1.
func Compare(a, b Value) int {
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

// Equal reports whether two values are identical. NULL equals NULL here
// (this is identity for storage/index purposes, not SQL ternary logic).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit FNV-1a hash of the value, used for hash
// partitioning and hash joins. Equal values hash equally (-0 as +0).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.K)
	switch v.K {
	case KindInt:
		putUint64(buf[1:], uint64(v.I))
		h.Write(buf[:])
	case KindFloat:
		putUint64(buf[1:], canonicalFloatBits(v.F))
		h.Write(buf[:])
	case KindString:
		h.Write(buf[:1])
		h.Write([]byte(v.S))
	default:
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// canonicalFloatBits is f's IEEE-754 bits with -0 folded into +0, the one
// float pair that Equal holds for but whose bits differ.
func canonicalFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

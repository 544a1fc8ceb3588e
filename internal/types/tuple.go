package types

import (
	"fmt"
	"math"
	"strings"
)

// Tuple is a row: one Value per schema column.
type Tuple []Value

// Clone returns a deep copy of the tuple (Values are value types, so a
// slice copy suffices).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have the same length and identical
// values position by position.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := min(len(t), len(o))
	for i := 0; i < n; i++ {
		if c := Compare(t[i], o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Hash combines the hashes of all values, for duplicate detection and
// hash-join build keys.
func (t Tuple) Hash() uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for _, v := range t {
		h ^= v.Hash()
		h *= 1099511628211 // FNV-64 prime
	}
	return h
}

// Concat returns a new tuple t ++ o.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// String renders the tuple as "(v1, v2, ...)" for debugging and shell output.
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.GoString())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the position of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex but panics on a missing column; used where the
// catalog has already validated the name.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("types: schema has no column %q", name))
	}
	return i
}

// Project returns a new schema containing the named columns in order.
func (s *Schema) Project(names []string) (*Schema, error) {
	out := &Schema{Cols: make([]Column, 0, len(names))}
	for _, n := range names {
		i := s.ColIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("types: no column %q in schema %v", n, s.Names())
		}
		out.Cols = append(out.Cols, s.Cols[i])
	}
	return out, nil
}

// Concat returns a schema with o's columns appended to s's.
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Prefixed returns a copy of the schema with every column renamed to
// "prefix.name"; used when joining relations so output columns stay
// unambiguous.
func (s *Schema) Prefixed(prefix string) *Schema {
	out := &Schema{Cols: make([]Column, len(s.Cols))}
	for i, c := range s.Cols {
		out.Cols[i] = Column{Name: prefix + "." + c.Name, Kind: c.Kind}
	}
	return out
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Validate checks that tuple t conforms to the schema (arity and kinds;
// NULL is allowed in any column). It rejects NaN, which Compare finds
// equal to every float, so that stored equal values have equal bytes.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Cols) {
		return fmt.Errorf("types: tuple arity %d != schema arity %d", len(t), len(s.Cols))
	}
	for i, v := range t {
		if v.K != KindNull && v.K != s.Cols[i].Kind {
			return fmt.Errorf("types: column %q expects %v, got %v", s.Cols[i].Name, s.Cols[i].Kind, v.K)
		}
		if v.K == KindFloat && math.IsNaN(v.F) {
			return fmt.Errorf("types: column %q: NaN is not a storable value", s.Cols[i].Name)
		}
	}
	return nil
}

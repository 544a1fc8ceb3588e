// Package expr provides scalar expressions over tuples: column references,
// constants, comparisons and boolean combinators. Expressions drive WHERE
// predicates, join conditions and the selection part of minimized auxiliary
// relations (AR = π(σ(R)) as in Quass et al., adopted by the paper §2.1.2).
package expr

import (
	"fmt"
	"strings"

	"joinview/internal/types"
)

// Expr is a scalar expression evaluated against a tuple with a known schema.
type Expr interface {
	// Eval computes the expression value for tuple t under schema s.
	Eval(s *types.Schema, t types.Tuple) (types.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Col references a column by name.
type Col struct{ Name string }

// Eval implements Expr.
func (c Col) Eval(s *types.Schema, t types.Tuple) (types.Value, error) {
	i := s.ColIndex(c.Name)
	if i < 0 {
		return types.Value{}, fmt.Errorf("expr: unknown column %q (schema %v)", c.Name, s.Names())
	}
	return t[i], nil
}

func (c Col) String() string { return c.Name }

// Const is a literal value.
type Const struct{ V types.Value }

// Eval implements Expr.
func (c Const) Eval(*types.Schema, types.Tuple) (types.Value, error) { return c.V, nil }

func (c Const) String() string {
	if c.V.K == types.KindString {
		return "'" + c.V.S + "'"
	}
	return c.V.GoString()
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Cmp compares two sub-expressions. Comparisons involving NULL evaluate to
// NULL (which Filter treats as false).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(s *types.Schema, t types.Tuple) (types.Value, error) {
	l, err := c.L.Eval(s, t)
	if err != nil {
		return types.Value{}, err
	}
	r, err := c.R.Eval(s, t)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	cmp := types.Compare(l, r)
	var ok bool
	switch c.Op {
	case EQ:
		ok = cmp == 0
	case NE:
		ok = cmp != 0
	case LT:
		ok = cmp < 0
	case LE:
		ok = cmp <= 0
	case GT:
		ok = cmp > 0
	case GE:
		ok = cmp >= 0
	}
	return boolVal(ok), nil
}

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is a conjunction of predicates; the empty conjunction is TRUE.
type And struct{ Terms []Expr }

// Eval implements Expr.
func (a And) Eval(s *types.Schema, t types.Tuple) (types.Value, error) {
	for _, e := range a.Terms {
		v, err := e.Eval(s, t)
		if err != nil {
			return types.Value{}, err
		}
		if !Truthy(v) {
			return boolVal(false), nil
		}
	}
	return boolVal(true), nil
}

func (a And) String() string {
	if len(a.Terms) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Terms))
	for i, e := range a.Terms {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

// Or is a disjunction of predicates; the empty disjunction is FALSE.
type Or struct{ Terms []Expr }

// Eval implements Expr.
func (o Or) Eval(s *types.Schema, t types.Tuple) (types.Value, error) {
	for _, e := range o.Terms {
		v, err := e.Eval(s, t)
		if err != nil {
			return types.Value{}, err
		}
		if Truthy(v) {
			return boolVal(true), nil
		}
	}
	return boolVal(false), nil
}

func (o Or) String() string {
	if len(o.Terms) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o.Terms))
	for i, e := range o.Terms {
		parts[i] = "(" + e.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// Not negates a predicate.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(s *types.Schema, t types.Tuple) (types.Value, error) {
	v, err := n.E.Eval(s, t)
	if err != nil {
		return types.Value{}, err
	}
	return boolVal(!Truthy(v)), nil
}

func (n Not) String() string { return "NOT (" + n.E.String() + ")" }

// True is the always-true predicate.
var True Expr = And{}

// Truthy reports whether a value counts as boolean true (non-zero int;
// NULL and everything else is false).
func Truthy(v types.Value) bool { return v.K == types.KindInt && v.I != 0 }

func boolVal(b bool) types.Value {
	if b {
		return types.Int(1)
	}
	return types.Int(0)
}

// Matches evaluates predicate p against a tuple and folds errors and NULL
// into false-with-error / false respectively.
func Matches(p Expr, s *types.Schema, t types.Tuple) (bool, error) {
	if p == nil {
		return true, nil
	}
	v, err := p.Eval(s, t)
	if err != nil {
		return false, err
	}
	return Truthy(v), nil
}

// Cols lists, ascending, the columns of s that p reads, so a tuple whose
// other columns are unset evaluates under p as the whole tuple would (a
// scan decodes only these). A name s lacks is left out: evaluating p
// reports it, as it would on the whole tuple.
func Cols(p Expr, s *types.Schema) []int {
	read := make([]bool, s.Len())
	markCols(p, s, read)
	var cols []int
	for i, r := range read {
		if r {
			cols = append(cols, i)
		}
	}
	return cols
}

func markCols(e Expr, s *types.Schema, read []bool) {
	switch e := e.(type) {
	case nil, Const:
	case Col:
		if i := s.ColIndex(e.Name); i >= 0 {
			read[i] = true
		}
	case Cmp:
		markCols(e.L, s, read)
		markCols(e.R, s, read)
	case And:
		for _, t := range e.Terms {
			markCols(t, s, read)
		}
	case Or:
		for _, t := range e.Terms {
			markCols(t, s, read)
		}
	case Not:
		markCols(e.E, s, read)
	default:
		// An expression this package does not know may read any column.
		for i := range read {
			read[i] = true
		}
	}
}

// Projection maps an input schema to an output tuple via named columns.
// It is deliberately restricted to column lists (no computed columns):
// that is all the paper's views and auxiliary relations need, and it keeps
// projected-AR maintenance trivially invertible.
type Projection struct {
	// Cols are input column names, in output order. Empty means identity.
	Cols []string
	idx  []int // resolved lazily against a schema
	src  *types.Schema
}

// NewProjection builds a projection of the named columns.
func NewProjection(cols []string) *Projection { return &Projection{Cols: cols} }

// Identity reports whether the projection passes tuples through unchanged.
func (p *Projection) Identity() bool { return p == nil || len(p.Cols) == 0 }

// OutputSchema returns the schema the projection yields for input schema s.
func (p *Projection) OutputSchema(s *types.Schema) (*types.Schema, error) {
	if p.Identity() {
		return s, nil
	}
	return s.Project(p.Cols)
}

// Apply projects tuple t (with schema s) onto the output columns.
func (p *Projection) Apply(s *types.Schema, t types.Tuple) (types.Tuple, error) {
	if p.Identity() {
		return t, nil
	}
	if p.src != s || p.idx == nil {
		idx := make([]int, len(p.Cols))
		for i, c := range p.Cols {
			j := s.ColIndex(c)
			if j < 0 {
				return nil, fmt.Errorf("expr: projection column %q not in schema %v", c, s.Names())
			}
			idx[i] = j
		}
		p.idx, p.src = idx, s
	}
	out := make(types.Tuple, len(p.idx))
	for i, j := range p.idx {
		out[i] = t[j]
	}
	return out, nil
}

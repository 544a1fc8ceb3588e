package expr

import (
	"reflect"
	"testing"

	"joinview/internal/types"
)

var testSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "bal", Kind: types.KindFloat},
	types.Column{Name: "name", Kind: types.KindString},
)

var testTuple = types.Tuple{types.Int(7), types.Float(10.5), types.String("alice")}

func evalBool(t *testing.T, e Expr) bool {
	t.Helper()
	v, err := e.Eval(testSchema, testTuple)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return Truthy(v)
}

func TestColAndConst(t *testing.T) {
	v, err := Col{"name"}.Eval(testSchema, testTuple)
	if err != nil || v.S != "alice" {
		t.Fatalf("Col eval = %v, %v", v, err)
	}
	if _, err := (Col{"zzz"}).Eval(testSchema, testTuple); err == nil {
		t.Error("unknown column must error")
	}
	c := Const{types.Int(5)}
	v, _ = c.Eval(nil, nil)
	if v.I != 5 {
		t.Error("const eval wrong")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		r    types.Value
		want bool
	}{
		{EQ, types.Int(7), true},
		{EQ, types.Int(8), false},
		{NE, types.Int(8), true},
		{LT, types.Int(8), true},
		{LE, types.Int(7), true},
		{GT, types.Int(6), true},
		{GE, types.Int(7), true},
		{GT, types.Int(7), false},
	}
	for _, c := range cases {
		e := Cmp{c.op, Col{"k"}, Const{c.r}}
		if got := evalBool(t, e); got != c.want {
			t.Errorf("%s = %v, want %v", e, got, c.want)
		}
	}
}

func TestNullComparisonIsFalse(t *testing.T) {
	e := Cmp{EQ, Col{"k"}, Const{types.Null()}}
	v, err := e.Eval(testSchema, testTuple)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Errorf("cmp with NULL should be NULL, got %v", v)
	}
	ok, err := Matches(e, testSchema, testTuple)
	if err != nil || ok {
		t.Errorf("Matches with NULL predicate = %v, %v; want false, nil", ok, err)
	}
}

func TestBooleanCombinators(t *testing.T) {
	tr := Cmp{EQ, Col{"k"}, Const{types.Int(7)}}
	fa := Cmp{EQ, Col{"k"}, Const{types.Int(0)}}
	if !evalBool(t, And{[]Expr{tr, tr}}) {
		t.Error("AND(true,true) failed")
	}
	if evalBool(t, And{[]Expr{tr, fa}}) {
		t.Error("AND(true,false) should be false")
	}
	if !evalBool(t, And{}) {
		t.Error("empty AND should be true")
	}
	if !evalBool(t, Or{[]Expr{fa, tr}}) {
		t.Error("OR(false,true) failed")
	}
	if evalBool(t, Or{}) {
		t.Error("empty OR should be false")
	}
	if !evalBool(t, Not{fa}) || evalBool(t, Not{tr}) {
		t.Error("NOT wrong")
	}
	if !evalBool(t, True) {
		t.Error("True should be true")
	}
}

func TestMatchesNilPredicate(t *testing.T) {
	ok, err := Matches(nil, testSchema, testTuple)
	if !ok || err != nil {
		t.Errorf("Matches(nil) = %v, %v", ok, err)
	}
}

func TestStrings(t *testing.T) {
	e := And{[]Expr{
		Cmp{EQ, Col{"k"}, Const{types.Int(7)}},
		Cmp{LT, Col{"name"}, Const{types.String("z")}},
	}}
	if got := e.String(); got != "k = 7 AND name < 'z'" {
		t.Errorf("String() = %q", got)
	}
	if (And{}).String() != "TRUE" || (Or{}).String() != "FALSE" {
		t.Error("empty combinator strings wrong")
	}
	if (Not{Col{"k"}}).String() != "NOT (k)" {
		t.Error("Not string wrong")
	}
	if (Or{[]Expr{Col{"k"}}}).String() != "(k)" {
		t.Error("Or string wrong")
	}
	for op, s := range map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != s {
			t.Errorf("op %d string = %q, want %q", op, op.String(), s)
		}
	}
	if (Const{types.String("x")}).String() != "'x'" {
		t.Error("string const should be quoted")
	}
}

func TestProjection(t *testing.T) {
	p := NewProjection([]string{"name", "k"})
	out, err := p.Apply(testSchema, testTuple)
	if err != nil {
		t.Fatal(err)
	}
	want := types.Tuple{types.String("alice"), types.Int(7)}
	if !out.Equal(want) {
		t.Errorf("Apply = %v, want %v", out, want)
	}
	os, err := p.OutputSchema(testSchema)
	if err != nil || os.Len() != 2 || os.Cols[0].Name != "name" {
		t.Errorf("OutputSchema = %v, %v", os, err)
	}
	// Identity projection passes through.
	var id *Projection
	if !id.Identity() {
		t.Error("nil projection should be identity")
	}
	out, err = id.Apply(testSchema, testTuple)
	if err != nil || !out.Equal(testTuple) {
		t.Errorf("identity Apply = %v, %v", out, err)
	}
	// Missing column errors.
	bad := NewProjection([]string{"zzz"})
	if _, err := bad.Apply(testSchema, testTuple); err == nil {
		t.Error("projection of missing column must error")
	}
	if _, err := bad.OutputSchema(testSchema); err == nil {
		t.Error("OutputSchema of missing column must error")
	}
}

func TestCols(t *testing.T) {
	p := Or{Terms: []Expr{
		Cmp{Op: EQ, L: Col{"name"}, R: Const{types.String("alice")}},
		And{Terms: []Expr{Cmp{Op: GT, L: Col{"k"}, R: Col{"name"}}, Not{E: Cmp{Op: LT, L: Col{"k"}, R: Const{types.Int(3)}}}}},
	}}
	if cols, want := Cols(p, testSchema), []int{0, 2}; !reflect.DeepEqual(cols, want) {
		t.Errorf("cols = %v, want %v", cols, want)
	}
	// Only the columns Cols reported are needed.
	partial := types.Tuple{testTuple[0], types.Null(), testTuple[2]}
	for _, tup := range []types.Tuple{testTuple, partial} {
		if ok, err := Matches(p, testSchema, tup); err != nil || !ok {
			t.Errorf("predicate on %v = %v, %v; want true", tup, ok, err)
		}
	}
	// An unknown column is left out; evaluation reports it.
	ghost := And{Terms: []Expr{Cmp{Op: EQ, L: Col{"k"}, R: Const{types.Int(0)}}, Cmp{Op: EQ, L: Col{"ghost"}, R: Col{"k"}}}}
	if cols, want := Cols(ghost, testSchema), []int{0}; !reflect.DeepEqual(cols, want) {
		t.Errorf("cols = %v, want %v", cols, want)
	}
	if cols := Cols(nil, testSchema); cols != nil {
		t.Errorf("Cols(nil) = %v", cols)
	}
}

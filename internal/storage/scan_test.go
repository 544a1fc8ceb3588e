package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"joinview/internal/buffer"
	"joinview/internal/expr"
	"joinview/internal/types"
)

// mixedSchema has one column of every kind; any of them may hold NULL.
func mixedSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "j", Kind: types.KindInt},
	)
}

// mixedValue draws a value for column col from a small domain, so that
// predicates match some rows and clustered runs repeat. Floats include
// both signed zeros, which must land in one run.
func mixedValue(rng *rand.Rand, col int) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null()
	}
	switch col {
	case 1:
		fs := []float64{math.Copysign(0, -1), 0, -1.5, 2.25, math.Inf(1)}
		return types.Float(fs[rng.Intn(len(fs))])
	case 2:
		return types.String([]string{"", "a", "ab", "b", "naïve"}[rng.Intn(5)])
	default:
		return types.Int(int64(rng.Intn(6) - 2))
	}
}

func mixedTuple(rng *rand.Rand) types.Tuple {
	t := make(types.Tuple, 4)
	for c := range t {
		t[c] = mixedValue(rng, c)
	}
	return t
}

// randomPred draws an And/Or/Not/Cmp tree over the mixed schema's columns
// and constants; with unknown set, some column references name no column.
func randomPred(rng *rand.Rand, depth int, unknown bool) expr.Expr {
	operand := func() expr.Expr {
		if rng.Intn(3) == 0 {
			return expr.Const{V: mixedValue(rng, rng.Intn(4))}
		}
		if unknown && rng.Intn(6) == 0 {
			return expr.Col{Name: "nope"}
		}
		return expr.Col{Name: mixedSchema().Cols[rng.Intn(4)].Name}
	}
	if depth == 0 || rng.Intn(3) == 0 {
		return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: operand(), R: operand()}
	}
	switch rng.Intn(3) {
	case 0:
		return expr.Not{E: randomPred(rng, depth-1, unknown)}
	case 1:
		terms := make([]expr.Expr, rng.Intn(3))
		for i := range terms {
			terms[i] = randomPred(rng, depth-1, unknown)
		}
		return expr.And{Terms: terms}
	default:
		terms := make([]expr.Expr, rng.Intn(3))
		for i := range terms {
			terms[i] = randomPred(rng, depth-1, unknown)
		}
		return expr.Or{Terms: terms}
	}
}

// scanResult is what a filtered scan hands its caller: the accepted rows
// in order, the error that stopped it, and what it charged.
type scanResult struct {
	rows   []RowID
	tuples []types.Tuple
	err    string
	meter  Counts
	pool   buffer.Stats
}

// TestScanWhereMatchesScan: ScanWhere with a bound predicate returns
// exactly the (row, tuple) sequence that Scan plus expr.Matches returns,
// stops on the same evaluation error, and charges and touches the same
// pages, over heap and clustered fragments with deletes.
func TestScanWhereMatchesScan(t *testing.T) {
	errs, matches := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(6)
		cfg := Config{Name: "r", PageRows: 1 + rng.Intn(4), Pool: buffer.New(capacity)}
		if seed%2 == 1 {
			cfg.ClusterCol = mixedSchema().Cols[rng.Intn(4)].Name
		}
		f, err := NewFragment(mixedSchema(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var live []RowID
		for i := 0; i < rng.Intn(60); i++ {
			r, err := f.Insert(mixedTuple(rng))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, r)
			if rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				f.Delete(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		s := f.Schema()
		for p := 0; p < 25; p++ {
			pred := randomPred(rng, 3, p%5 == 4)
			measure := func(scan func(accept func(RowID, types.Tuple) bool) error) scanResult {
				f.meter.Reset()
				f.pool = buffer.New(capacity) // both scans start cold
				var res scanResult
				if err := scan(func(row RowID, tup types.Tuple) bool {
					res.rows = append(res.rows, row)
					res.tuples = append(res.tuples, tup)
					return true
				}); err != nil {
					res.err = err.Error()
				}
				res.meter, res.pool = f.meter.Snapshot(), f.pool.Stats()
				return res
			}
			want := measure(func(accept func(RowID, types.Tuple) bool) error {
				var evalErr error
				f.Scan(func(row RowID, tup types.Tuple) bool {
					ok, err := expr.Matches(pred, s, tup)
					if err != nil {
						evalErr = err
						return false
					}
					return !ok || accept(row, tup)
				})
				return evalErr
			})
			got := measure(func(accept func(RowID, types.Tuple) bool) error {
				return f.ScanWhere(expr.Cols(pred, s), func(tup types.Tuple) (bool, error) {
					return expr.Matches(pred, s, tup)
				}, accept)
			})
			if want.err != "" {
				errs++
			}
			matches += len(want.rows)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s (cluster %q, %d rows):\nScanWhere %+v\nScan      %+v",
					seed, pred, cfg.ClusterCol, f.Len(), got, want)
			}
		}
	}
	if errs == 0 || matches == 0 {
		t.Errorf("draws met %d evaluation errors and %d matches: both must occur", errs, matches)
	}
}

// TestScanWhereStopsAndRejectsBadColumns: fn returning false ends the scan,
// and columns that are not ascending schema positions are an error.
func TestScanWhereStopsAndRejectsBadColumns(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{})
	for i := int64(0); i < 10; i++ {
		f.Insert(orderTuple(i, i%2, 1))
	}
	n := 0
	err := f.ScanWhere([]int{1}, func(tup types.Tuple) (bool, error) {
		if !tup[0].IsNull() || !tup[2].IsNull() {
			return false, fmt.Errorf("column outside cols decoded: %v", tup)
		}
		return tup[1].I == 1, nil
	}, func(RowID, types.Tuple) bool { n++; return n < 3 })
	if err != nil || n != 3 {
		t.Errorf("ScanWhere = %v after %d rows, want nil after 3", err, n)
	}
	keepAll := func(types.Tuple) (bool, error) { return true, nil }
	for _, cols := range [][]int{{1, 0}, {0, 0}, {3}, {-1}} {
		if err := f.ScanWhere(cols, keepAll, func(RowID, types.Tuple) bool { return true }); err == nil {
			t.Errorf("ScanWhere(%v) should fail", cols)
		}
	}
}

// touchAllPagesDecoding is the reference for TouchAllPages: it decodes
// every row, finds clustered runs with types.Equal and dedups heap pages
// with a per-pass set. The key-only walk must reproduce it touch for
// touch.
func touchAllPagesDecoding(f *Fragment, times int, touch func(buffer.PageKey)) {
	for pass := 0; pass < times; pass++ {
		if f.clusterCol >= 0 {
			var curKey types.Value
			ordinal := 0
			first := true
			f.scanRaw(func(_ RowID, t types.Tuple) bool {
				v := t[f.clusterCol]
				if first || !types.Equal(v, curKey) {
					curKey, ordinal, first = v, 0, false
				}
				if ordinal%f.pageRows == 0 {
					touch(f.keyRunPage(v, ordinal))
				}
				ordinal++
				return true
			})
			continue
		}
		seen := map[uint64]bool{}
		f.scanRaw(func(row RowID, _ types.Tuple) bool {
			pg := uint64(row) / uint64(f.pageRows)
			if !seen[pg] {
				seen[pg] = true
				touch(f.rowPage(row))
			}
			return true
		})
	}
}

// TestTouchAllPagesMatchesDecodingReference: on heap and clustered
// fragments, with runs longer than a page, deletes and multi-pass sorts,
// the key-only walk touches the reference's pages in the reference's
// order, so two twin pools see the same hits, misses and evictions.
func TestTouchAllPagesMatchesDecodingReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cluster := ""
		if seed%3 != 0 {
			cluster = mixedSchema().Cols[rng.Intn(4)].Name
		}
		pageRows, capacity := 1+rng.Intn(4), 1+rng.Intn(8)
		twin := func() *Fragment {
			f, err := NewFragment(mixedSchema(), Config{Name: "r", ClusterCol: cluster, PageRows: pageRows, Pool: buffer.New(capacity)})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		f, ref := twin(), twin()
		var live []RowID
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(5); {
			case op < 3 || len(live) == 0:
				// Several copies of one tuple make clustered runs longer
				// than a page.
				tup, copies := mixedTuple(rng), 1+rng.Intn(2*pageRows+1)
				for c := 0; c < copies; c++ {
					r, err := f.Insert(tup)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := ref.Insert(tup); err != nil {
						t.Fatal(err)
					}
					live = append(live, r)
				}
			case op == 3:
				k := rng.Intn(len(live))
				f.Delete(live[k])
				ref.Delete(live[k])
				live = append(live[:k], live[k+1:]...)
			default:
				times := 1 + rng.Intn(3)
				var got, want []buffer.PageKey
				f.scanPages(func(k buffer.PageKey) { got = append(got, k) })
				touchAllPagesDecoding(ref, 1, func(k buffer.PageKey) { want = append(want, k) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (cluster %q): pages\n%v\nwant %v", seed, step, cluster, got, want)
				}
				f.TouchAllPages(times)
				touchAllPagesDecoding(ref, times, func(k buffer.PageKey) { ref.pool.Touch(k) })
			}
			if g, w := f.pool.Stats(), ref.pool.Stats(); g != w || f.pool.Resident() != ref.pool.Resident() {
				t.Fatalf("seed %d step %d (cluster %q): pool %+v (%d resident), reference %+v (%d resident)",
					seed, step, cluster, g, f.pool.Resident(), w, ref.pool.Resident())
			}
		}
	}
}

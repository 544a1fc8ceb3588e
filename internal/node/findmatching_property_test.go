package node

import (
	"math/rand"
	"reflect"
	"testing"

	"joinview/internal/expr"
	"joinview/internal/storage"
	"joinview/internal/types"
)

var itemsSchema = types.NewSchema(
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "price", Kind: types.KindFloat},
	types.Column{Name: "tag", Kind: types.KindString},
)

func randomItemValue(rng *rand.Rand, col int) types.Value {
	if rng.Intn(6) == 0 {
		return types.Null()
	}
	switch col {
	case 0:
		return types.Int(int64(rng.Intn(5)))
	case 1:
		return types.Float(float64(rng.Intn(5)) / 2)
	default:
		return types.String([]string{"a", "b", "ab"}[rng.Intn(3)])
	}
}

// randomItemPred draws a predicate over the items schema; one reference in
// eight names a column the schema lacks.
func randomItemPred(rng *rand.Rand, depth int) expr.Expr {
	operand := func() expr.Expr {
		switch rng.Intn(8) {
		case 0:
			return expr.Col{Name: "ghost"}
		case 1, 2, 3:
			return expr.Const{V: randomItemValue(rng, rng.Intn(3))}
		}
		return expr.Col{Name: itemsSchema.Cols[rng.Intn(3)].Name}
	}
	if depth == 0 || rng.Intn(3) == 0 {
		return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: operand(), R: operand()}
	}
	switch rng.Intn(3) {
	case 0:
		return expr.Not{E: randomItemPred(rng, depth-1)}
	case 1:
		return expr.And{Terms: []expr.Expr{randomItemPred(rng, depth-1), randomItemPred(rng, depth-1)}}
	default:
		return expr.Or{Terms: []expr.Expr{randomItemPred(rng, depth-1), randomItemPred(rng, depth-1)}}
	}
}

// TestFindMatchingMatchesFilter: the FindMatching handler returns the rows
// and tuples a full read filtered by expr.Matches returns, in the same
// order, fails exactly when that filter meets an evaluation error, and
// charges one scan page per page either way.
func TestFindMatchingMatchesFilter(t *testing.T) {
	errs, matches := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(0, 10)
		cluster := []string{"", "id", "tag"}[seed%3]
		mustHandle(t, n, CreateFragment{Name: "items", Schema: itemsSchema, ClusterCol: cluster, PageRows: 3})
		tuples := make([]types.Tuple, rng.Intn(40))
		for i := range tuples {
			tuples[i] = types.Tuple{randomItemValue(rng, 0), randomItemValue(rng, 1), randomItemValue(rng, 2)}
		}
		mustHandle(t, n, Insert{Frag: "items", Tuples: tuples})
		all := mustHandle(t, n, ScanWithRows{Frag: "items"}).(RowsResult)
		pages := int64((len(tuples) + 2) / 3)
		for p := 0; p < 30; p++ {
			pred := randomItemPred(rng, 2)
			var want RowsResult
			var wantErr error
			for i, tup := range all.Tuples {
				ok, err := expr.Matches(pred, itemsSchema, tup)
				if err != nil {
					wantErr = err
					break
				}
				if ok {
					want.Rows = append(want.Rows, all.Rows[i])
					want.Tuples = append(want.Tuples, tup)
				}
			}
			mustHandle(t, n, ResetMeter{})
			resp, err := n.Handle(FindMatching{Frag: "items", Pred: pred})
			if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d, %s: error %v, want %v", seed, pred, err, wantErr)
			}
			if err != nil {
				errs++
			} else {
				matches += len(want.Rows)
			}
			if err == nil && !reflect.DeepEqual(resp.(RowsResult), want) {
				t.Fatalf("seed %d, %s (cluster %q):\ngot  %+v\nwant %+v", seed, pred, cluster, resp, want)
			}
			if c := mustHandle(t, n, MeterSnapshot{}).(storage.Counts); c.ScanPages != pages || c.IOs() != pages {
				t.Fatalf("seed %d, %s: charged %+v, want %d scan pages", seed, pred, c, pages)
			}
		}
	}
	if errs == 0 || matches == 0 {
		t.Errorf("draws met %d evaluation errors and %d matches: both must occur", errs, matches)
	}
}

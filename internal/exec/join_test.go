package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"joinview/internal/catalog"
	"joinview/internal/storage"
	"joinview/internal/types"
)

var fragSchema = types.NewSchema(
	types.Column{Name: "d", Kind: types.KindInt},
	types.Column{Name: "payload", Kind: types.KindInt},
)

func buildFrag(t *testing.T, cfg storage.Config, rows [][2]int64) *storage.Fragment {
	t.Helper()
	f, err := storage.NewFragment(fragSchema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := f.Insert(types.Tuple{types.Int(r[0]), types.Int(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func deltaTuples(keys ...int64) []types.Tuple {
	out := make([]types.Tuple, len(keys))
	for i, k := range keys {
		out[i] = types.Tuple{types.Int(k), types.Int(100 + k)}
	}
	return out
}

func TestIndexNestedLoops(t *testing.T) {
	f := buildFrag(t, storage.Config{ClusterCol: "d"}, [][2]int64{
		{1, 10}, {1, 11}, {2, 20}, {3, 30},
	})
	out, err := IndexNestedLoops(deltaTuples(1, 3, 9), 0, f, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d joined tuples, want 3: %v", len(out), out)
	}
	// delta(1) matches rows (1,10) and (1,11); output = delta ++ row.
	if out[0].String() != "(1, 101, 1, 10)" || out[1].String() != "(1, 101, 1, 11)" {
		t.Errorf("unexpected join output %v", out)
	}
	if out[2][2].I != 3 {
		t.Errorf("delta 3 should join row with d=3, got %v", out[2])
	}
	if _, err := IndexNestedLoops(deltaTuples(1), 5, f, "d"); err == nil {
		t.Error("bad delta key index should fail")
	}
	if _, err := IndexNestedLoops(deltaTuples(1), 0, f, "nope"); err == nil {
		t.Error("bad fragment column should fail")
	}
}

func TestCeilLog(t *testing.T) {
	cases := []struct{ base, pages, want int }{
		{10, 0, 0},
		{10, 1, 1},
		{10, 9, 1},
		{10, 10, 1},
		{10, 11, 2},
		{10, 100, 2},
		{10, 101, 3},
		{1, 8, 3}, // degenerate base clamps to 2
		{2, 8, 3},
	}
	for _, c := range cases {
		if got := CeilLog(c.base, c.pages); got != c.want {
			t.Errorf("CeilLog(%d, %d) = %d, want %d", c.base, c.pages, got, c.want)
		}
	}
}

func TestSortMergeCostClustered(t *testing.T) {
	m := &storage.Meter{}
	rows := make([][2]int64, 100)
	for i := range rows {
		rows[i] = [2]int64{int64(i % 10), int64(i)}
	}
	f := buildFrag(t, storage.Config{ClusterCol: "d", Meter: m, PageRows: 10}, rows)
	m.Reset()
	out, err := SortMerge(deltaTuples(3), 0, f, "d", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("matches = %d, want 10", len(out))
	}
	c := m.Snapshot()
	// Clustered on the join column: one scan of 10 pages, no sort.
	if c.ScanPages != 10 || c.SortPages != 0 {
		t.Errorf("clustered sort-merge charged %+v", c)
	}
}

func TestSortMergeCostNonClustered(t *testing.T) {
	m := &storage.Meter{}
	rows := make([][2]int64, 1000)
	for i := range rows {
		rows[i] = [2]int64{int64(i % 10), int64(i)}
	}
	f := buildFrag(t, storage.Config{Meter: m, PageRows: 10}, rows) // heap: 100 pages
	m.Reset()
	if _, err := SortMerge(deltaTuples(3), 0, f, "d", 10); err != nil {
		t.Fatal(err)
	}
	c := m.Snapshot()
	// 100 pages, M=10: ceil(log_10(100)) = 2 passes -> 200 page I/Os.
	if c.SortPages != 200 || c.ScanPages != 0 {
		t.Errorf("non-clustered sort-merge charged %+v", c)
	}
}

func TestSortMergeErrors(t *testing.T) {
	f := buildFrag(t, storage.Config{}, [][2]int64{{1, 1}})
	if _, err := SortMerge(deltaTuples(1), 0, f, "nope", 10); err == nil {
		t.Error("bad column should fail")
	}
	if _, err := SortMerge(deltaTuples(1), 9, f, "d", 10); err == nil {
		t.Error("bad delta index should fail")
	}
}

func TestHashJoin(t *testing.T) {
	left := deltaTuples(1, 2, 2, 5)
	right := []types.Tuple{
		{types.Int(2), types.Int(200)},
		{types.Int(5), types.Int(500)},
		{types.Int(5), types.Int(501)},
	}
	out, err := HashJoin(left, 0, right, 0)
	if err != nil {
		t.Fatal(err)
	}
	// delta 2 appears twice x 1 match + delta 5 x 2 matches = 4.
	if len(out) != 4 {
		t.Fatalf("HashJoin produced %d tuples: %v", len(out), out)
	}
	if _, err := HashJoin(left, 9, right, 0); err == nil {
		t.Error("bad left index should fail")
	}
	if _, err := HashJoin(left, 0, right, 9); err == nil {
		t.Error("bad right index should fail")
	}
}

// Property: INL, sort-merge and hash join produce the same multiset of
// results on random data.
func TestJoinAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRows := 50 + rng.Intn(100)
		rows := make([][2]int64, nRows)
		for i := range rows {
			rows[i] = [2]int64{int64(rng.Intn(12)), int64(i)}
		}
		clustered := buildFragQ(storage.Config{ClusterCol: "d"}, rows)
		heap := buildFragQ(storage.Config{}, rows)
		heap.CreateIndex("ix", "d")

		var delta []types.Tuple
		for i := 0; i < 1+rng.Intn(20); i++ {
			delta = append(delta, types.Tuple{types.Int(int64(rng.Intn(15))), types.Int(int64(1000 + i))})
		}
		inl, err := IndexNestedLoops(delta, 0, heap, "d")
		if err != nil {
			return false
		}
		sm, err := SortMerge(delta, 0, clustered, "d", 10)
		if err != nil {
			return false
		}
		hj, err := HashJoin(delta, 0, heap.All(), 0)
		if err != nil {
			return false
		}
		return sameBag(inl, sm) && sameBag(inl, hj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func buildFragQ(cfg storage.Config, rows [][2]int64) *storage.Fragment {
	f, err := storage.NewFragment(fragSchema, cfg)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		if _, err := f.Insert(types.Tuple{types.Int(r[0]), types.Int(r[1])}); err != nil {
			panic(err)
		}
	}
	return f
}

func sameBag(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t types.Tuple) string { return t.String() }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Join reports malformed input as an error: the relations and predicates
// come from ad-hoc queries and SQL.
func TestJoinRejectsBadInputs(t *testing.T) {
	rel := func(binding string) Rel {
		return Rel{Binding: binding, Schema: fragSchema.Prefixed(binding), Rows: deltaTuples(1, 2)}
	}
	pred := func(l, lc, r, rc string) catalog.JoinPred {
		return catalog.JoinPred{Left: l, LeftCol: lc, Right: r, RightCol: rc}
	}
	cases := map[string]struct {
		rels  []Rel
		preds []catalog.JoinPred
	}{
		"no relations":      {nil, nil},
		"duplicate binding": {[]Rel{rel("a"), rel("a")}, []catalog.JoinPred{pred("a", "d", "a", "d")}},
		"disconnected":      {[]Rel{rel("a"), rel("b")}, nil},
		"unknown binding":   {[]Rel{rel("a"), rel("b")}, []catalog.JoinPred{pred("a", "d", "c", "d")}},
		"unknown column":    {[]Rel{rel("a"), rel("b")}, []catalog.JoinPred{pred("a", "d", "b", "nope")}},
	}
	for name, tc := range cases {
		if _, _, _, err := Join(tc.rels, tc.preds); err == nil {
			t.Errorf("%s: Join succeeded, want an error", name)
		}
	}
	// The predicate a step did not use comes back for the caller.
	preds := []catalog.JoinPred{pred("a", "d", "b", "d"), pred("b", "payload", "a", "payload")}
	rows, schema, residual, err := Join([]Rel{rel("a"), rel("b")}, preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || schema.Len() != 4 || len(residual) != 1 || residual[0] != preds[1] {
		t.Fatalf("rows %v, schema %v, residual %v", rows, schema.Names(), residual)
	}
}

package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"joinview/internal/storage"
	"joinview/internal/types"
)

// TestHandleCoversAllRequests checks the request registry against Handle:
// every type AllRequests lists must reach a real case, never the "unknown
// request type" fallthrough. A zero-value request may fail for other
// reasons (missing fragment, empty name); only recognition is asserted.
func TestHandleCoversAllRequests(t *testing.T) {
	for _, req := range AllRequests() {
		n := New(0, 10)
		n.EnableDurability(10, 0)
		_, err := n.Handle(req)
		if err != nil && strings.Contains(err.Error(), fmt.Sprintf("unknown request type %T", req)) {
			t.Errorf("Handle does not recognize %T", req)
		}
	}
}

// TestIsMutatingStable pins the classification: requests that change node
// state versus pure reads and control requests. A new request type added
// to AllRequests lands here as a test failure until it is classified.
func TestIsMutatingStable(t *testing.T) {
	mutating := map[string]bool{
		"node.Insert": true, "node.DeleteRows": true, "node.DeleteMatch": true,
		"node.RestoreRows": true, "node.GIInsertBatch": true,
		"node.GIDeleteBatch": true, "node.AggApply": true,
		"node.CreateFragment": true, "node.CreateIndex": true,
		"node.CreateGlobalIndex": true, "node.DropFragment": true,
		"node.DropGlobalIndexFrag": true,
		"node.PromoteSlots":        true, "node.GIPromoteSlots": true,
		"node.GIScrubNode": true,
	}
	seen := map[string]bool{}
	for _, req := range AllRequests() {
		name := fmt.Sprintf("%T", req)
		if seen[name] {
			t.Errorf("AllRequests lists %s twice", name)
		}
		seen[name] = true
		if got, want := IsMutating(req), mutating[name]; got != want {
			t.Errorf("IsMutating(%s) = %v, want %v", name, got, want)
		}
	}
	for name := range mutating {
		if !seen[name] {
			t.Errorf("mutating type %s missing from AllRequests", name)
		}
	}
}

// TestSplitMutationClassifiesEveryMutation: every mutating request type is
// either split by slot, forwarded as DDL, or explicitly never mirrored, and
// nothing else is. A new mutating type that SplitMutation does not know
// comes back MirrorNone and fails here.
func TestSplitMutationClassifiesEveryMutation(t *testing.T) {
	want := map[string]MirrorClass{
		"node.Insert": MirrorSplit, "node.RestoreRows": MirrorSplit,
		"node.DeleteRows": MirrorSplit, "node.DeleteMatch": MirrorSplit,
		"node.AggApply":      MirrorSplit,
		"node.GIInsertBatch": MirrorSplit, "node.GIDeleteBatch": MirrorSplit,
		"node.CreateFragment": MirrorDDL, "node.CreateGlobalIndex": MirrorDDL,
		"node.DropFragment": MirrorDDL, "node.DropGlobalIndexFrag": MirrorDDL,
		"node.CreateIndex": MirrorNever, "node.PromoteSlots": MirrorNever, "node.GIPromoteSlots": MirrorNever,
		"node.GIScrubNode": MirrorNever,
	}
	for _, req := range AllRequests() {
		name := fmt.Sprintf("%T", req)
		got := SplitMutation(req, nil).Class
		switch {
		case !IsMutating(req):
			if got != MirrorNone {
				t.Errorf("SplitMutation(%s) = class %d for a non-mutating request", name, got)
			}
		case got == MirrorNone:
			t.Errorf("mutating request %s is not classified by SplitMutation", name)
		case got != want[name]:
			t.Errorf("SplitMutation(%s) = class %d, want %d", name, got, want[name])
		}
	}
}

// TestSplitMutationDDLRename: forwarded DDL keeps every field but the name.
func TestSplitMutationDDLRename(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	for _, tc := range []struct{ req, want any }{
		{CreateFragment{Name: "f", Schema: schema, ClusterCol: "k", PageRows: 7},
			CreateFragment{Name: "f~r", Schema: schema, ClusterCol: "k", PageRows: 7}},
		{CreateGlobalIndex{Name: "g", DistClustered: true}, CreateGlobalIndex{Name: "g~r", DistClustered: true}},
		{DropFragment{Name: "f"}, DropFragment{Name: "f~r"}},
		{DropGlobalIndexFrag{Name: "g"}, DropGlobalIndexFrag{Name: "g~r"}},
	} {
		m := SplitMutation(tc.req, nil)
		if got := m.Rename(m.Target + "~r"); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Rename(%T) = %+v, want %+v", tc.req, got, tc.want)
		}
	}
}

// TestSplitMutationPartitionProperty: for a random route function, the
// rebuilt pieces carry exactly the original elements — each once per
// destination of its slot, nothing dropped, nothing invented, input order
// kept — for tuple, aggregate-group and global-index mutations.
func TestSplitMutationPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n, nodes := rng.Intn(12), 1+rng.Intn(5)
		// fan[s] is the random destination set of "slot" s (possibly empty).
		fan := make([][]int, 4)
		for s := range fan {
			for d := 0; d < nodes; d++ {
				if rng.Intn(3) == 0 {
					fan[s] = append(fan[s], d)
				}
			}
		}
		route := func(v types.Value, out []int) []int { return append(out, fan[v.I%4]...) }
		tuples := make([]types.Tuple, n)
		deltas := make([]types.Tuple, n)
		vals := make([]types.Value, n)
		gs := make([]storage.GlobalRowID, n)
		for i := range tuples {
			k := int64(rng.Intn(9)) // repeats: the check is on multisets
			tuples[i] = types.Tuple{types.Int(int64(i)), types.Int(k)}
			deltas[i] = types.Tuple{types.Int(int64(100 + i))}
			vals[i] = types.Int(k)
			gs[i] = storage.GlobalRowID{Node: int32(i % 3), Row: storage.RowID(i)}
		}
		// want: every element once at each destination of its slot.
		want := map[int][]int{}
		for i, v := range vals {
			for _, d := range fan[v.I%4] {
				want[d] = append(want[d], i)
			}
		}
		deleted := DeleteResult{Tuples: tuples}
		for _, tc := range []struct {
			name      string
			req, resp any
		}{
			{"Insert", Insert{Frag: "f", Tuples: tuples}, nil},
			{"RestoreRows", RestoreRows{Frag: "f", Tuples: tuples}, nil},
			{"DeleteRows", DeleteRows{Frag: "f"}, deleted},
			{"DeleteMatch", DeleteMatch{Frag: "f", HintCol: "x"}, deleted},
			{"AggApply", AggApply{Frag: "f", HintCol: "h", GroupLen: 2, CountPos: 1, Keys: tuples, Deltas: deltas}, nil},
			{"GIInsertBatch", GIInsertBatch{GI: "g", Vals: vals, Gs: gs, Metered: true}, nil},
			{"GIDeleteBatch", GIDeleteBatch{GI: "g", Vals: vals, Gs: gs}, nil},
		} {
			m := SplitMutation(tc.req, tc.resp)
			if m.Len() != n {
				t.Fatalf("%s: Len = %d, want %d", tc.name, m.Len(), n)
			}
			if byDst := m.Split(1, route); !reflect.DeepEqual(byDst, want) {
				t.Fatalf("%s: split into %v, want %v", tc.name, byDst, want)
			}
			for _, idxs := range want {
				checkRebuilt(t, tc.name, m.Rebuild("copy", "hint", idxs, true), idxs, tuples, deltas, vals, gs)
			}
		}
	}
}

// checkRebuilt asserts one rebuilt piece is addressed to the copy and holds
// exactly the picked elements.
func checkRebuilt(t *testing.T, name string, got any, idxs []int, tuples, deltas []types.Tuple, vals []types.Value, gs []storage.GlobalRowID) {
	t.Helper()
	var wantT, wantD []types.Tuple
	var wantV []types.Value
	var wantG []storage.GlobalRowID
	for _, i := range idxs {
		wantT, wantD = append(wantT, tuples[i]), append(wantD, deltas[i])
		wantV, wantG = append(wantV, vals[i]), append(wantG, gs[i])
	}
	var want any
	switch name {
	case "Insert":
		want = Insert{Frag: "copy", Tuples: wantT}
	case "RestoreRows":
		want = Insert{Frag: "copy", Tuples: wantT, Unmetered: true}
	case "DeleteRows", "DeleteMatch":
		want = DeleteMatch{Frag: "copy", HintCol: "hint", Tuples: wantT}
	case "AggApply":
		want = AggApply{Frag: "copy", HintCol: "h", GroupLen: 2, CountPos: 1, Keys: wantT, Deltas: wantD}
	case "GIInsertBatch":
		want = GIInsertBatch{GI: "copy", Vals: wantV, Gs: wantG, Metered: true}
	case "GIDeleteBatch":
		want = GIDeleteBatch{GI: "copy", Vals: wantV, Gs: wantG}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rebuilt %+v, want %+v", name, got, want)
	}
}

// TestSplitMutationMetering: a copy's insert charges I/O only when both
// the original did and the sink is metered, for rows and index entries
// alike; an index delete rebuilds as the same batch.
func TestSplitMutationMetering(t *testing.T) {
	all := []int{0}
	tup := []types.Tuple{{types.Int(1)}}
	g := storage.GlobalRowID{Node: 1, Row: 2}
	for _, tc := range []struct {
		req     any
		metered bool
		want    any
	}{
		{Insert{Frag: "f", Tuples: tup}, true, Insert{Frag: "c", Tuples: tup}},
		{Insert{Frag: "f", Tuples: tup}, false, Insert{Frag: "c", Tuples: tup, Unmetered: true}},
		{Insert{Frag: "f", Tuples: tup, Unmetered: true}, true, Insert{Frag: "c", Tuples: tup, Unmetered: true}},
		{GIInsertBatch{GI: "g", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}, Metered: true}, true,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}, Metered: true}},
		{GIInsertBatch{GI: "g", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}, Metered: true}, false,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
		{GIInsertBatch{GI: "g", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}, true,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
		{GIDeleteBatch{GI: "g", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}, false,
			GIDeleteBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
	} {
		if got := SplitMutation(tc.req, nil).Rebuild("c", "", all, tc.metered); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T metered=%v: rebuilt %+v, want %+v", tc.req, tc.metered, got, tc.want)
		}
	}
}

// TestInverseRoundTrip is the property every walker of the one inverse
// algebra relies on (coordinator rollback, ResolveAbort, Recover's in-doubt
// inversion): for every invertible request type, applying the request to a
// node with random content and then applying InverseOf(request, response)
// restores rows, row ids, global-index postings and aggregate groups
// exactly — and the inverse writes at the forward request's epoch. A
// mutating request type without a generator here must be listed as having
// no inverse.
func TestInverseRoundTrip(t *testing.T) {
	aggSchema := types.NewSchema(
		types.Column{Name: "v.g", Kind: types.KindInt},
		types.Column{Name: "count", Kind: types.KindInt},
		types.Column{Name: "sum", Kind: types.KindFloat},
	)
	// world is a fresh node with random content: an orders fragment with
	// holes in its row-id space, a global index over it, an aggregate
	// fragment — plus what the generators need to aim at live state.
	type world struct {
		n      *DataNode
		rows   []storage.RowID // live orders rows, parallel to tuples
		tuples []types.Tuple
		holes  []storage.RowID // freed row ids
		gone   []types.Tuple   // the tuples that occupied them
		groups int64           // aggregate groups 0..groups-1, each count >= 2
	}
	build := func(t *testing.T, rng *rand.Rand) *world {
		w := &world{n: New(0, 16)}
		mustHandle(t, w.n, CreateFragment{Name: "orders", Schema: ordersSchema, PageRows: 8})
		mustHandle(t, w.n, CreateGlobalIndex{Name: "gi"})
		mustHandle(t, w.n, CreateFragment{Name: "agg", Schema: aggSchema, ClusterCol: "v.g", PageRows: 8})
		var all []types.Tuple
		for k := int64(1); k <= int64(12+rng.Intn(12)); k++ {
			all = append(all, order(k, int64(rng.Intn(5))))
		}
		ids := mustHandle(t, w.n, Insert{Frag: "orders", Tuples: all}).(InsertResult).Rows
		for i, id := range ids {
			if i == 0 || (i > 1 && rng.Intn(4) == 0) {
				w.holes, w.gone = append(w.holes, id), append(w.gone, all[i])
				continue
			}
			w.rows, w.tuples = append(w.rows, id), append(w.tuples, all[i])
			mustHandle(t, w.n, GIInsertBatch{GI: "gi", Metered: true,
				Vals: []types.Value{all[i][1]}, Gs: []storage.GlobalRowID{{Node: 0, Row: id}}})
		}
		mustHandle(t, w.n, DeleteRows{Frag: "orders", Rows: w.holes})
		w.groups = int64(3 + rng.Intn(4))
		agg := AggApply{Frag: "agg", HintCol: "v.g", GroupLen: 1}
		for g := int64(0); g < w.groups; g++ {
			agg.Keys = append(agg.Keys, types.Tuple{types.Int(g)})
			agg.Deltas = append(agg.Deltas, types.Tuple{types.Int(int64(2 + rng.Intn(3))), types.Float(float64(rng.Intn(100)))})
		}
		mustHandle(t, w.n, agg)
		return w
	}
	// some picks a non-empty random subset of 0..n-1, ascending.
	some := func(rng *rand.Rand, n int) []int {
		var out []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			out = append(out, rng.Intn(n))
		}
		return out
	}
	const epoch = 7
	posting := func(w *world, i int) (types.Value, storage.GlobalRowID) {
		return w.tuples[i][1], storage.GlobalRowID{Node: 0, Row: w.rows[i]}
	}
	gens := map[string]func(w *world, rng *rand.Rand) any{
		"node.Insert": func(w *world, rng *rand.Rand) any {
			return Insert{Frag: "orders", Epoch: epoch, Tuples: []types.Tuple{order(900, 1), order(901, 2), order(902, 1)}}
		},
		"node.RestoreRows": func(w *world, rng *rand.Rand) any {
			idxs := some(rng, len(w.holes))
			return RestoreRows{Frag: "orders", Epoch: epoch, Rows: pick(w.holes, idxs), Tuples: pick(w.gone, idxs)}
		},
		"node.DeleteRows": func(w *world, rng *rand.Rand) any {
			return DeleteRows{Frag: "orders", Epoch: epoch, Rows: pick(w.rows, some(rng, len(w.rows)))}
		},
		"node.DeleteMatch": func(w *world, rng *rand.Rand) any {
			// One tuple that is not stored rides along: it matches nothing.
			victims := append(pick(w.tuples, some(rng, len(w.tuples))), order(999, 9))
			return DeleteMatch{Frag: "orders", HintCol: "orderkey", Epoch: epoch, Tuples: victims}
		},
		"node.GIInsertBatch": func(w *world, rng *rand.Rand) any {
			return GIInsertBatch{GI: "gi", Metered: true,
				Vals: []types.Value{types.Int(1), types.Int(8)},
				Gs:   []storage.GlobalRowID{{Node: 1, Row: 5}, {Node: 3, Row: 6}}}
		},
		"node.GIDeleteBatch": func(w *world, rng *rand.Rand) any {
			// One posting that does not exist rides along: the inverse must
			// not invent it.
			b := GIDeleteBatch{GI: "gi", Vals: []types.Value{types.Int(4)}, Gs: []storage.GlobalRowID{{Node: 9, Row: 9}}}
			for _, i := range some(rng, len(w.rows)) {
				val, g := posting(w, i)
				b.Vals, b.Gs = append(b.Vals, val), append(b.Gs, g)
			}
			return b
		},
		"node.CreateFragment": func(w *world, rng *rand.Rand) any {
			return CreateFragment{Name: "fresh", Schema: ordersSchema, PageRows: 8}
		},
		"node.CreateGlobalIndex": func(w *world, rng *rand.Rand) any {
			return CreateGlobalIndex{Name: "gi2"}
		},
		"node.AggApply": func(w *world, rng *rand.Rand) any {
			// Fold into one group, drain another to count 0 (the group row
			// disappears) and create a new one.
			drained := mustHandle(t, w.n, Scan{Frag: "agg", Unmetered: true}).(RowsResult).Tuples[0]
			grow := (drained[0].I + 1) % w.groups
			return AggApply{Frag: "agg", HintCol: "v.g", GroupLen: 1, Epoch: epoch,
				Keys: []types.Tuple{{types.Int(grow)}, {drained[0]}, {types.Int(w.groups)}},
				Deltas: []types.Tuple{
					{types.Int(1), types.Float(12)},
					{types.Int(-drained[1].I), types.Float(-drained[2].F)},
					{types.Int(2), types.Float(40)},
				}}
		},
	}
	noInverse := map[string]bool{
		"node.CreateIndex": true, "node.DropFragment": true, "node.DropGlobalIndexFrag": true,
		"node.PromoteSlots": true, "node.GIPromoteSlots": true, "node.GIScrubNode": true,
	}
	for _, req := range AllRequests() {
		name := fmt.Sprintf("%T", req)
		gen := gens[name]
		if gen == nil {
			if IsMutating(req) && !noInverse[name] {
				t.Errorf("mutating request %s has neither a round-trip generator nor a no-inverse entry", name)
			}
			continue
		}
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				w := build(t, rng)
				before := stateFingerprint(t, w.n, "agg")
				req := gen(w, rng)
				resp := mustHandle(t, w.n, req)
				if stateFingerprint(t, w.n, "agg") == before {
					t.Fatalf("trial %d: %+v changed nothing", trial, req)
				}
				inv := InverseOf(req, resp)
				if inv == nil {
					t.Fatalf("trial %d: no inverse for %+v", trial, req)
				}
				if ep := reflect.ValueOf(req).FieldByName("Epoch"); ep.IsValid() {
					if got := reflect.ValueOf(inv).FieldByName("Epoch"); !got.IsValid() || got.Uint() != ep.Uint() {
						t.Fatalf("trial %d: inverse %T does not carry the forward epoch %d", trial, inv, ep.Uint())
					}
				}
				mustHandle(t, w.n, inv)
				if after := stateFingerprint(t, w.n, "agg"); after != before {
					t.Fatalf("trial %d: %T then %T did not round-trip:\n--- before ---\n%s\n--- after ---\n%s", trial, req, inv, before, after)
				}
			}
		})
	}
}

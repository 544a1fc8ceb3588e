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
		"node.RestoreRows": true, "node.GIInsert": true, "node.GIInsertBatch": true,
		"node.GIDelete": true, "node.GIDeleteBatch": true,
		"node.AggApply": true, "node.LocalJoin": true,
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
		"node.AggApply": MirrorSplit,
		"node.GIInsert": MirrorSplit, "node.GIDelete": MirrorSplit,
		"node.GIInsertBatch": MirrorSplit, "node.GIDeleteBatch": MirrorSplit,
		"node.CreateFragment": MirrorDDL, "node.CreateGlobalIndex": MirrorDDL,
		"node.DropFragment": MirrorDDL, "node.DropGlobalIndexFrag": MirrorDDL,
		"node.LocalJoin": MirrorNever, "node.CreateIndex": MirrorNever,
		"node.PromoteSlots": MirrorNever, "node.GIPromoteSlots": MirrorNever,
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
// the original did and the sink is metered; single-entry index requests
// normalize to their batch form.
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
		{GIInsert{GI: "g", Val: types.Int(5), G: g}, true,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}, Metered: true}},
		{GIInsert{GI: "g", Val: types.Int(5), G: g}, false,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
		{GIInsertBatch{GI: "g", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}, true,
			GIInsertBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
		{GIDelete{GI: "g", Val: types.Int(5), G: g}, false,
			GIDeleteBatch{GI: "c", Vals: []types.Value{types.Int(5)}, Gs: []storage.GlobalRowID{g}}},
	} {
		if got := SplitMutation(tc.req, nil).Rebuild("c", "", all, tc.metered); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T metered=%v: rebuilt %+v, want %+v", tc.req, tc.metered, got, tc.want)
		}
	}
}

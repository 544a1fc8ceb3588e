package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"joinview/internal/storage"
	"joinview/internal/types"
)

// stateFingerprint serializes the node's visible state — every fragment's
// (row id, tuple) set and every global-index fragment's (value, global
// row id) set, canonically ordered — so two states compare byte-identical
// exactly when they are equal. Fragments named in byValue are compared as
// tuple bags, without row ids (an aggregate group is rewritten in place, so
// its row id is not part of its identity).
func stateFingerprint(t *testing.T, n *DataNode, byValue ...string) string {
	t.Helper()
	var sb strings.Builder
	var frags []string
	for name := range n.frags {
		frags = append(frags, name)
	}
	sort.Strings(frags)
	for _, name := range frags {
		rr := mustHandle(t, n, ScanWithRows{Frag: name}).(RowsResult)
		type row struct {
			id  storage.RowID
			tup types.Tuple
		}
		rows := make([]row, len(rr.Rows))
		for i := range rr.Rows {
			rows[i] = row{rr.Rows[i], rr.Tuples[i]}
		}
		bag := false
		for _, b := range byValue {
			bag = bag || b == name
		}
		if bag {
			for i := range rows {
				rows[i].id = 0
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].tup.Compare(rows[j].tup) < 0 })
		} else {
			sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
		}
		fmt.Fprintf(&sb, "frag %s\n", name)
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %v %v\n", r.id, r.tup)
		}
	}
	var gis []string
	for name := range n.gidx {
		gis = append(gis, name)
	}
	sort.Strings(gis)
	for _, name := range gis {
		sc := mustHandle(t, n, GIScan{GI: name}).(GIScanResult)
		entries := make([]string, len(sc.Vals))
		for i := range sc.Vals {
			entries[i] = fmt.Sprintf("  %v %v", sc.Vals[i], sc.Gs[i])
		}
		sort.Strings(entries)
		fmt.Fprintf(&sb, "gi %s\n%s\n", name, strings.Join(entries, "\n"))
	}
	return sb.String()
}

// TestPropertyReplayIdempotent drives a durable node through randomized
// logged workloads (inserts, deletes by row and by value, global-index
// maintenance, occasional checkpoints) and asserts recovery is
// idempotent: restarting once reproduces the pre-crash state
// byte-identically, and restarting again — replaying the same checkpoint
// and log tail a second time — changes nothing. A replay path that is not
// deterministic (row ids reallocated, victims re-chosen) or not
// idempotent (entries applied twice) breaks the fingerprint comparison.
func TestPropertyReplayIdempotent(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + trial)))
			n := New(0, 64)
			n.EnableDurability(8, 0)
			var seq uint64
			do := func(req any) any {
				seq++
				return mustHandle(t, n, Seq{ID: seq, Req: req})
			}
			do(CreateFragment{Name: "orders", Schema: ordersSchema, PageRows: 8})
			do(CreateGlobalIndex{Name: "gi_orders"})

			type live struct {
				id  storage.RowID
				tup types.Tuple
			}
			var rows []live
			nextKey := int64(1)
			for op := 0; op < 60; op++ {
				switch k := rng.Intn(10); {
				case k < 5: // insert a small batch, index every row
					var tuples []types.Tuple
					for j := 0; j < 1+rng.Intn(3); j++ {
						tuples = append(tuples, order(nextKey, nextKey%7))
						nextKey++
					}
					ir := do(Insert{Frag: "orders", Tuples: tuples}).(InsertResult)
					for i, id := range ir.Rows {
						rows = append(rows, live{id, tuples[i]})
						do(GIInsert{GI: "gi_orders", Val: tuples[i][1],
							G: storage.GlobalRowID{Node: 0, Row: id}})
					}
				case k < 7 && len(rows) > 0: // delete by row id
					i := rng.Intn(len(rows))
					victim := rows[i]
					rows = append(rows[:i], rows[i+1:]...)
					do(DeleteRows{Frag: "orders", Rows: []storage.RowID{victim.id}})
					do(GIDelete{GI: "gi_orders", Val: victim.tup[1],
						G: storage.GlobalRowID{Node: 0, Row: victim.id}})
				case k < 8 && len(rows) > 0: // delete by value (victim chosen at the node)
					i := rng.Intn(len(rows))
					victim := rows[i]
					rows = append(rows[:i], rows[i+1:]...)
					dr := do(DeleteMatch{Frag: "orders", HintCol: "orderkey",
						Tuples: []types.Tuple{victim.tup}}).(DeleteResult)
					for j, id := range dr.Rows {
						do(GIDelete{GI: "gi_orders", Val: dr.Tuples[j][1],
							G: storage.GlobalRowID{Node: 0, Row: id}})
					}
				case k < 9 && rng.Intn(3) == 0: // occasional checkpoint
					mustHandle(t, n, CheckpointReq{})
				}
			}

			before := stateFingerprint(t, n)

			mustHandle(t, n, CrashReq{})
			mustHandle(t, n, RestartReq{})
			once := stateFingerprint(t, n)
			if once != before {
				t.Fatalf("replay diverged from pre-crash state:\n--- before ---\n%s\n--- after ---\n%s", before, once)
			}

			// Crash and replay the identical durable state a second time:
			// byte-identical result or replay is not idempotent.
			mustHandle(t, n, CrashReq{})
			mustHandle(t, n, RestartReq{})
			twice := stateFingerprint(t, n)
			if twice != once {
				t.Fatalf("second replay diverged:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
			}
		})
	}
}

// TestRecoveryLeavesNoVersions: replay re-applies a logged Insert as an
// epoch-less RestoreRows while logged deletes and InverseOf's compensations
// keep their Epoch, so the version log a restart would leave is unmatched —
// delete records with no insert beside them, which resurrect an aborted
// statement's rows in any snapshot below them. A log holding one committed
// transaction and one the coordinator was rolling back when the node died
// (one of its two inserts compensated, no decision) must come out of
// restart, and out of the abort's resolution, with every fragment's version
// log empty: a snapshot at any epoch the log mentions is the live state.
func TestRecoveryLeavesNoVersions(t *testing.T) {
	n := newDurableNodeWithOrders(t)
	mustHandle(t, n, Seq{ID: 2, TID: 5, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(1, 5)}, Epoch: 2}})
	mustHandle(t, n, Prepare{TID: 5})
	mustHandle(t, n, Decide{TID: 5, Commit: true})

	mustHandle(t, n, Seq{ID: 3, TID: 6, Req: Insert{Frag: "orders", Tuples: []types.Tuple{order(2, 6)}, Epoch: 3}})
	fwd := Insert{Frag: "orders", Tuples: []types.Tuple{order(3, 7)}, Epoch: 3}
	resp := mustHandle(t, n, Seq{ID: 4, TID: 6, Req: fwd})
	mustHandle(t, n, Seq{ID: 5, TID: 6, Req: InverseOf(fwd, resp)})

	check := func(when string, want int) {
		t.Helper()
		for name, f := range n.frags {
			if l := f.VersionLen(); l != 0 {
				t.Errorf("%s: fragment %q keeps %d version records", when, name, l)
			}
			for e := uint64(1); e <= 3; e++ {
				if got := f.SnapshotAll(e); len(got) != len(f.All()) {
					t.Errorf("%s: fragment %q at epoch %d shows %d rows, live state has %d", when, name, e, len(got), len(f.All()))
				}
			}
		}
		if got := ordersContent(t, n); len(got) != want {
			t.Errorf("%s: %d orders, want %d: %v", when, len(got), want, got)
		}
	}
	mustHandle(t, n, CrashReq{})
	res := mustHandle(t, n, RestartReq{}).(RestartResult)
	if !reflect.DeepEqual(res.InDoubt, []uint64{6}) {
		t.Fatalf("InDoubt = %v, want [6]", res.InDoubt)
	}
	check("after restart", 2)
	mustHandle(t, n, ResolveAbort{TID: 6})
	check("after resolve", 1)
}

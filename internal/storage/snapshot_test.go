package storage

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"joinview/internal/types"
)

// fragmentState is everything a restore must reproduce: the tuples and
// their row ids in layout order, the next row id, and what the secondary
// index on orderkey returns for each key that was ever stored.
type fragmentState struct {
	all     []types.Tuple
	rows    []RowID
	nextRow RowID
	lookups map[int64][]Match
}

func stateOf(t *testing.T, f *Fragment, keys []int64) fragmentState {
	t.Helper()
	s := fragmentState{all: f.All(), nextRow: f.nextRow, lookups: map[int64][]Match{}}
	f.ScanUnmetered(func(row RowID, _ types.Tuple) bool {
		s.rows = append(s.rows, row)
		return true
	})
	for _, k := range keys {
		ms, path, err := f.LookupEqual("orderkey", types.Int(k))
		if err != nil || path != AccessSecondary {
			t.Fatalf("LookupEqual(orderkey=%d) = %v, %v", k, path, err)
		}
		s.lookups[k] = ms
	}
	return s
}

func noteSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "note", Kind: types.KindString},
	)
}

func noteTuple(ok, ck int64, note string) types.Tuple {
	return types.Tuple{types.Int(ok), types.Int(ck), types.String(note)}
}

// TestSnapshotUnaffectedByLaterWrites: the image shares the fragment's
// encoded rows, so nothing the live fragment does afterwards may show in
// what the image restores: inserts that split leaves, rows of every length
// up to 8 KB (they overwrite any scratch buffer the fragment reuses),
// deletes, and re-inserting a deleted row id with another tuple.
func TestSnapshotUnaffectedByLaterWrites(t *testing.T) {
	f, err := NewFragment(noteSchema(), Config{Name: "orders", ClusterCol: "custkey", PageRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateIndex("ix_orderkey", "orderkey"); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for k := int64(0); k < 100; k++ {
		if _, err := f.Insert(noteTuple(k, k%7, fmt.Sprintf("note %d", k))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for row := RowID(0); row < 100; row += 9 {
		f.Delete(row)
	}
	before := stateOf(t, f, keys)
	snap := f.Snapshot()

	for k := int64(1000); k < 1500; k++ { // several hundred rows: leaves split
		if _, err := f.Insert(noteTuple(k, k%5, "")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for n := 0; n < 8192; n += 32 { // rows of every length overwrite any reused buffer
		if _, err := f.Insert(noteTuple(int64(2000+n), 3, strings.Repeat("x", n))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, int64(2000+n))
	}
	for row := RowID(1); row < 100; row += 3 {
		f.Delete(row)
	}
	if err := f.InsertAt(1, noteTuple(-1, 99, "moved")); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, -1)
	if reflect.DeepEqual(stateOf(t, f, keys[:100]), before) {
		t.Fatal("the mutations left the live fragment unchanged; the test proves nothing")
	}

	r, err := RestoreFragment(snap, &Meter{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := stateOf(t, r, keys)
	for _, k := range keys[100:] {
		if len(after.lookups[k]) != 0 {
			t.Fatalf("restored index finds orderkey %d, written after the snapshot: %v", k, after.lookups[k])
		}
		delete(after.lookups, k)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("restored fragment differs from the state at the snapshot:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSnapshotAllocsIndependentOfRows: taking an image decodes and copies
// no row, so its allocations are the entry slice and the index list, the
// same at any fragment size.
func TestSnapshotAllocsIndependentOfRows(t *testing.T) {
	f, err := NewFragment(ordersSchema(), Config{ClusterCol: "custkey"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateIndex("ix_orderkey", "orderkey"); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 10_000; k++ {
		if _, err := f.Insert(orderTuple(k, k%97, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var snap FragmentSnapshot
	allocs := testing.AllocsPerRun(5, func() { snap = f.Snapshot() })
	if len(snap.Entries) != 10_000 {
		t.Fatalf("image holds %d entries, want 10000", len(snap.Entries))
	}
	if allocs > 3 {
		t.Fatalf("Snapshot of 10000 rows made %.0f allocations, want at most 3", allocs)
	}
}

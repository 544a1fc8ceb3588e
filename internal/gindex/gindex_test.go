package gindex

import (
	"reflect"
	"testing"
	"testing/quick"

	"joinview/internal/storage"
	"joinview/internal/types"
)

func TestInsertLookupDelete(t *testing.T) {
	m := &storage.Meter{}
	f := New(m, false)
	g1 := storage.GlobalRowID{Node: 0, Row: 1}
	g2 := storage.GlobalRowID{Node: 3, Row: 7}
	f.Insert(types.Int(5), g1)
	f.Insert(types.Int(5), g2)
	f.Insert(types.Int(6), storage.GlobalRowID{Node: 1, Row: 2})
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	got := f.Lookup(types.Int(5))
	if len(got) != 2 || got[0] != g1 || got[1] != g2 {
		t.Fatalf("Lookup = %v", got)
	}
	if len(f.Lookup(types.Int(99))) != 0 {
		t.Error("lookup of absent value should be empty")
	}
	if !f.Delete(types.Int(5), g1) {
		t.Fatal("Delete failed")
	}
	if f.Delete(types.Int(5), g1) {
		t.Error("double delete returned true")
	}
	got = f.Lookup(types.Int(5))
	if len(got) != 1 || got[0] != g2 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestMeterCharges(t *testing.T) {
	m := &storage.Meter{}
	f := New(m, true)
	if !f.DistClustered() {
		t.Error("DistClustered lost")
	}
	f.Insert(types.Int(1), storage.GlobalRowID{Node: 0, Row: 0})
	f.Lookup(types.Int(1))
	f.Lookup(types.Int(2))
	f.Delete(types.Int(1), storage.GlobalRowID{Node: 0, Row: 0})
	c := m.Snapshot()
	if c.Inserts != 1 || c.Searches != 2 || c.Deletes != 1 || c.Fetches != 0 {
		t.Errorf("charges = %+v", c)
	}
}

func TestGroupByNode(t *testing.T) {
	ids := []storage.GlobalRowID{
		{Node: 3, Row: 1},
		{Node: 0, Row: 2},
		{Node: 3, Row: 5},
		{Node: 1, Row: 9},
	}
	groups := GroupByNode(ids)
	if len(groups) != 3 {
		t.Fatalf("K = %d, want 3", len(groups))
	}
	if groups[0].Node != 0 || groups[1].Node != 1 || groups[2].Node != 3 {
		t.Errorf("groups not sorted: %v", groups)
	}
	if len(groups[2].Rows) != 2 || groups[2].Rows[0] != 1 || groups[2].Rows[1] != 5 {
		t.Errorf("node 3 rows = %v", groups[2].Rows)
	}
	if GroupByNode(nil) != nil && len(GroupByNode(nil)) != 0 {
		t.Error("empty input should yield no groups")
	}
}

// Property: K = |GroupByNode(ids)| is exactly the number of distinct nodes,
// and every row id survives grouping.
func TestGroupByNodePreservesRows(t *testing.T) {
	f := func(nodes []uint8) bool {
		ids := make([]storage.GlobalRowID, len(nodes))
		distinct := map[int32]bool{}
		for i, n := range nodes {
			node := int32(n % 16)
			ids[i] = storage.GlobalRowID{Node: node, Row: storage.RowID(i)}
			distinct[node] = true
		}
		groups := GroupByNode(ids)
		if len(groups) != len(distinct) {
			return false
		}
		total := 0
		for _, g := range groups {
			total += len(g.Rows)
		}
		return total == len(ids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type giEntry struct {
	V types.Value
	G storage.GlobalRowID
}

func entriesOf(f *Fragment) []giEntry {
	var out []giEntry
	f.Scan(func(v types.Value, g storage.GlobalRowID) bool {
		out = append(out, giEntry{v, g})
		return true
	})
	return out
}

// TestSnapshotUnaffectedByLaterWrites: the image shares the tree's encoded
// entries, so inserting, deleting and re-inserting one value afterwards
// must not show in what the image restores.
func TestSnapshotUnaffectedByLaterWrites(t *testing.T) {
	f := New(&storage.Meter{}, true)
	for i := int64(0); i < 200; i++ {
		f.Insert(types.Int(i%50), storage.GlobalRowID{Node: int32(i % 4), Row: storage.RowID(i)})
	}
	before := entriesOf(f)
	snap := f.Snapshot()

	for i := int64(200); i < 600; i++ {
		f.Insert(types.Int(i%70), storage.GlobalRowID{Node: 9, Row: storage.RowID(i)})
	}
	g := storage.GlobalRowID{Node: 1, Row: 5}
	if !f.Delete(types.Int(5), g) {
		t.Fatal("Delete of an indexed entry failed")
	}
	f.Insert(types.Int(5), storage.GlobalRowID{Node: 3, Row: 5})

	r := Restore(snap, &storage.Meter{})
	if !r.DistClustered() {
		t.Error("DistClustered lost")
	}
	if got := entriesOf(r); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored entries differ from the state at the snapshot:\nbefore %v\nafter  %v", before, got)
	}
	if got := r.Lookup(types.Int(5)); len(got) != 4 || got[0] != (storage.GlobalRowID{Node: 1, Row: 5}) {
		t.Fatalf("restored Lookup(5) = %v", got)
	}
}

// TestSnapshotAllocsIndependentOfEntries: an image is one entry slice,
// whatever the fragment's size.
func TestSnapshotAllocsIndependentOfEntries(t *testing.T) {
	f := New(&storage.Meter{}, false)
	for i := int64(0); i < 10_000; i++ {
		f.Insert(types.Int(i%997), storage.GlobalRowID{Node: int32(i % 4), Row: storage.RowID(i)})
	}
	var snap Snapshot
	allocs := testing.AllocsPerRun(5, func() { snap = f.Snapshot() })
	if len(snap.Entries) != 10_000 {
		t.Fatalf("image holds %d entries, want 10000", len(snap.Entries))
	}
	if allocs > 1 {
		t.Fatalf("Snapshot of 10000 entries made %.0f allocations, want at most 1", allocs)
	}
}

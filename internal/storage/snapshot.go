package storage

import (
	"fmt"

	"joinview/internal/btree"
	"joinview/internal/buffer"
	"joinview/internal/types"
)

// IndexDef names one secondary index of a fragment, for snapshotting.
type IndexDef struct {
	Name string
	Col  string
}

// FragmentSnapshot is a consistent, self-contained image of a fragment:
// everything needed to reconstruct it exactly, including row-id assignment
// (global-index entries reference (node, row) pairs, so a restore that
// re-allocated ids would dangle them). Snapshots back the per-node fuzzy
// checkpoints of the durability layer.
type FragmentSnapshot struct {
	Name       string
	Schema     *types.Schema
	ClusterCol string
	PageRows   int
	NextRow    RowID
	// Entries are the primary tree's encoded entries in layout order: key =
	// row id (heap) or cluster value || row id (clustered), value = tuple.
	Entries []btree.Entry
	Indexes []IndexDef
}

// Snapshot captures the fragment's current contents. The image shares the
// primary tree's encoded keys and tuples instead of copying them: the tree
// never writes an entry's bytes after Insert (they are carved from the
// arena once), so later inserts, deletes and re-inserts of the live
// fragment do not leak into the image. Taking a snapshot decodes nothing
// and allocates the entry slice once. It is not metered here; the
// checkpoint machinery charges the image write as log page I/O.
func (f *Fragment) Snapshot() FragmentSnapshot {
	s := FragmentSnapshot{
		Name:     f.name,
		Schema:   f.schema,
		PageRows: f.pageRows,
		NextRow:  f.nextRow,
		Entries:  f.rows.Entries(),
	}
	if col, ok := f.Clustered(); ok {
		s.ClusterCol = col
	}
	for name, idx := range f.secondary {
		s.Indexes = append(s.Indexes, IndexDef{Name: name, Col: f.schema.Cols[idx.col].Name})
	}
	return s
}

// RestoreFragment reconstructs a fragment from a snapshot, wiring it to the
// given meter and pool (recovery installs the restored fragment in a freshly
// wiped node). The image's encoded entries go into the new primary tree as
// they are, so the fragment shares them with the image; only the columns
// secondary indexes key on, and a clustered fragment's cluster value for
// its page touch, are located. The rebuild itself is unmetered: the
// recovery path accounts the checkpoint pages it read instead.
func RestoreFragment(s FragmentSnapshot, meter *Meter, pool *buffer.Pool) (*Fragment, error) {
	f, err := NewFragment(s.Schema, Config{
		Name:       s.Name,
		ClusterCol: s.ClusterCol,
		PageRows:   s.PageRows,
		Meter:      meter,
		Pool:       pool,
	})
	if err != nil {
		return nil, err
	}
	for _, ix := range s.Indexes {
		if err := f.CreateIndex(ix.Name, ix.Col); err != nil {
			return nil, err
		}
	}
	f.loc = make(map[RowID][]byte, len(s.Entries))
	for _, e := range s.Entries {
		rowKey := e.Key[len(e.Key)-8:]
		row := decodeRowID(rowKey)
		f.rows.Insert(e.Key, e.Val)
		f.loc[row] = e.Key
		for _, idx := range f.secondary {
			// A tuple encodes each value as AppendValue does, so a
			// column's bytes are that value's index key.
			k, err := types.TupleCol(e.Val, idx.col)
			if err != nil {
				return nil, fmt.Errorf("storage: restore %s: %w", s.Name, err)
			}
			idx.tree.Insert(k, rowKey)
		}
		f.touchRestored(row, e.Key)
	}
	f.nextRow = s.NextRow
	return f, nil
}

// touchRestored records the page access of restoring one row, as
// touchStored does for an insert; a clustered key starts with the encoded
// cluster value.
func (f *Fragment) touchRestored(row RowID, key []byte) {
	if f.pool == nil {
		return
	}
	if f.clusterCol < 0 {
		f.pool.Touch(f.rowPage(row))
		return
	}
	f.pool.Touch(f.keyRunPage(mustDecodeValue(key), 0))
}

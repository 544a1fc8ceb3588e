// Package gindex implements global indexes, the paper's third maintenance
// structure (§2.1.3): an index partitioned on a non-partitioning attribute
// c of a relation, mapping each value of c to the global row ids — (node,
// local row id) pairs — of all tuples with that value.
//
// Each node holds one Fragment of the global index: the entries whose key
// hashes to that node. A global index is "distributed clustered" when the
// base relation is locally clustered on the indexed attribute at every
// node, which makes the per-node fetch of matching tuples a single page.
package gindex

import (
	"sort"

	"joinview/internal/btree"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// Fragment is one node's share of a global index.
type Fragment struct {
	tree          *btree.Tree // key = encoded attribute value, val = encoded GlobalRowID
	meter         *storage.Meter
	distClustered bool
}

// New creates an empty global-index fragment charging I/O to meter.
func New(meter *storage.Meter, distClustered bool) *Fragment {
	return &Fragment{tree: btree.New(), meter: meter, distClustered: distClustered}
}

// DistClustered reports whether the index is distributed clustered.
func (f *Fragment) DistClustered() bool { return f.distClustered }

// Len returns the number of entries in this fragment.
func (f *Fragment) Len() int { return f.tree.Len() }

// Insert adds an entry mapping value v to global row id g, charging one
// INSERT ("inserting a new entry ... into the global index", §3.1(8)).
func (f *Fragment) Insert(v types.Value, g storage.GlobalRowID) {
	f.tree.Insert(types.EncodeKey(v), storage.EncodeGlobalRowID(g))
	f.meter.Insert(1)
}

// InsertUnmetered adds an entry without charging I/O (index backfill).
func (f *Fragment) InsertUnmetered(v types.Value, g storage.GlobalRowID) {
	f.tree.Insert(types.EncodeKey(v), storage.EncodeGlobalRowID(g))
}

// Delete removes the entry (v, g), charging one DELETE, and reports whether
// it existed.
func (f *Fragment) Delete(v types.Value, g storage.GlobalRowID) bool {
	ok := f.tree.Delete(types.EncodeKey(v), storage.EncodeGlobalRowID(g))
	if ok {
		f.meter.Delete(1)
	}
	return ok
}

// DeleteUnmetered removes the entry (v, g) without charging I/O
// (replication failover and repair).
func (f *Fragment) DeleteUnmetered(v types.Value, g storage.GlobalRowID) bool {
	return f.tree.Delete(types.EncodeKey(v), storage.EncodeGlobalRowID(g))
}

// Lookup returns the global row ids recorded for value v, charging one
// SEARCH. Per §3.1(6), fetching the located entry list is free (the entry
// fits on the page the search lands on).
func (f *Fragment) Lookup(v types.Value) []storage.GlobalRowID {
	f.meter.Search(1)
	raw := f.tree.Get(types.EncodeKey(v))
	out := make([]storage.GlobalRowID, 0, len(raw))
	for _, b := range raw {
		g, ok := storage.DecodeGlobalRowID(b)
		if !ok {
			panic("gindex: corrupt global row id entry")
		}
		out = append(out, g)
	}
	return out
}

// Scan visits every entry in value order without charging I/O
// (verification and debugging).
func (f *Fragment) Scan(fn func(v types.Value, g storage.GlobalRowID) bool) {
	f.tree.Scan(func(k, val []byte) bool {
		v, _, err := types.DecodeValue(k)
		if err != nil {
			panic("gindex: corrupt key: " + err.Error())
		}
		g, ok := storage.DecodeGlobalRowID(val)
		if !ok {
			panic("gindex: corrupt global row id entry")
		}
		return fn(v, g)
	})
}

// Snapshot is a self-contained image of a global-index fragment, for the
// durability layer's checkpoints: the tree's encoded entries (key =
// attribute value, value = global row id) in value order.
type Snapshot struct {
	DistClustered bool
	Entries       []btree.Entry
}

// Snapshot captures the fragment's current entries. The image shares the
// tree's encoded key and value slices, which are allocated once per Insert
// and never written afterwards, so later mutations of the live fragment do
// not leak into it. Taking it decodes nothing and allocates once.
func (f *Fragment) Snapshot() Snapshot {
	return Snapshot{DistClustered: f.distClustered, Entries: f.tree.Entries()}
}

// Restore reconstructs a fragment from a snapshot, unmetered (the recovery
// path accounts checkpoint pages instead). The restored tree shares the
// image's encoded entries.
func Restore(s Snapshot, meter *storage.Meter) *Fragment {
	f := New(meter, s.DistClustered)
	for _, e := range s.Entries {
		f.tree.Insert(e.Key, e.Val)
	}
	return f
}

// NodeRows groups the rows of one node from a global-row-id list.
type NodeRows struct {
	Node int
	Rows []storage.RowID
}

// GroupByNode partitions global row ids by node, returning groups sorted by
// node id (deterministic iteration order for the experiments). The group
// count is the paper's K: the number of nodes the matching tuples reside at.
func GroupByNode(ids []storage.GlobalRowID) []NodeRows {
	byNode := map[int][]storage.RowID{}
	for _, g := range ids {
		byNode[int(g.Node)] = append(byNode[int(g.Node)], g.Row)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([]NodeRows, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, NodeRows{Node: n, Rows: byNode[n]})
	}
	return out
}

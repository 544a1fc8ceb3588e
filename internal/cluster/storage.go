package cluster

import (
	"fmt"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// StorageEntry reports the footprint of one stored object.
type StorageEntry struct {
	Name string
	// Kind is "table", "auxrel", "view" or "globalindex".
	Kind string
	// Rows is the total tuple count (or entry count for global indexes).
	Rows int
	// Pages is the total page count across nodes (0 for global indexes,
	// whose entries the §3.1 model treats as single-page lists).
	Pages int
	// Cols is the stored column width (structure minimization shrinks it).
	Cols int
}

// StorageReport is the cluster-wide space accounting — the other half of
// the paper's trade-off ("the last two methods improve performance at the
// cost of using more space").
type StorageReport struct {
	Entries []StorageEntry
}

// RowsOf returns the row count of a named entry, or -1.
func (r StorageReport) RowsOf(name string) int {
	for _, e := range r.Entries {
		if e.Name == name {
			return e.Rows
		}
	}
	return -1
}

// Overhead sums the rows of auxiliary structures (everything that is not a
// base table or a view): the extra storage a maintenance method costs.
func (r StorageReport) Overhead() (rows int) {
	for _, e := range r.Entries {
		if e.Kind == "auxrel" || e.Kind == "globalindex" {
			rows += e.Rows
		}
	}
	return rows
}

// OverheadValues weights the overhead by stored width (rows × columns;
// a global-index entry counts as two values: attribute value + global row
// id). This captures §2.1.3's "global indices usually require less extra
// storage than auxiliary relations".
func (r StorageReport) OverheadValues() (values int) {
	for _, e := range r.Entries {
		if e.Kind == "auxrel" || e.Kind == "globalindex" {
			values += e.Rows * e.Cols
		}
	}
	return values
}

// StorageReport gathers sizes of every table, auxiliary relation, view and
// global index. It is unmetered, and reads inside one read scope, so the
// sizes are those of the structures its catalog lists.
func (c *Cluster) StorageReport() (StorageReport, error) {
	rs := c.beginRead()
	defer rs.end()
	cat := rs.cat
	var rep StorageReport
	add := func(name, kind string, cols int) error {
		rows, pages := 0, 0
		resps, err := c.tr.Broadcast(netsim.Coordinator, node.FragInfo{Frag: name, GI: kind == "globalindex"})
		if err != nil {
			return err
		}
		for _, r := range resps {
			info := r.(node.FragInfoResult)
			rows += info.Len
			pages += info.Pages
		}
		rep.Entries = append(rep.Entries, StorageEntry{Name: name, Kind: kind, Rows: rows, Pages: pages, Cols: cols})
		return nil
	}
	for _, name := range cat.Tables() {
		t, _ := cat.Table(name)
		if err := add(name, "table", t.Schema.Len()); err != nil {
			return rep, err
		}
		for _, ar := range cat.AuxRelsFor(name) {
			if err := add(ar.Name, "auxrel", ar.Schema.Len()); err != nil {
				return rep, err
			}
		}
		for _, gi := range cat.GlobalIndexesFor(name) {
			if err := add(gi.Name, "globalindex", 2); err != nil {
				return rep, err
			}
		}
	}
	for _, name := range cat.Views() {
		v, _ := cat.View(name)
		if err := add(name, "view", v.Schema.Len()); err != nil {
			return rep, err
		}
	}
	sort.Slice(rep.Entries, func(i, j int) bool { return rep.Entries[i].Name < rep.Entries[j].Name })
	return rep, nil
}

// CheckAuxRelConsistency verifies the named auxiliary relation equals
// π(σ(base)) re-computed from the current base relation (bag equality),
// both read in one scope.
func (c *Cluster) CheckAuxRelConsistency(name string) error {
	rs, err := c.beginReadOn(func(cat *catalog.Catalog) ([]string, error) {
		ar, err := cat.AuxRel(name)
		if err != nil {
			return nil, err
		}
		return []string{ar.Table}, nil
	})
	if err != nil {
		return err
	}
	defer rs.end()
	ar, _ := rs.cat.AuxRel(name)
	base, err := rs.cat.Table(ar.Table)
	if err != nil {
		return err
	}
	baseRows, err := rs.unmetered(ar.Table)
	if err != nil {
		return err
	}
	want, err := projectForAuxRel(base, ar, baseRows)
	if err != nil {
		return err
	}
	got, err := rs.unmetered(name)
	if err != nil {
		return err
	}
	if err := bagEqual(got, want); err != nil {
		return fmt.Errorf("cluster: auxiliary relation %q out of sync with %q: %w", name, ar.Table, err)
	}
	// Partitioning invariant: every AR tuple lives at the hash home of
	// its partition column.
	pi := ar.Schema.MustColIndex(ar.PartitionCol)
	part := rs.cat.Partitioner()
	for n := 0; n < c.NumNodes(); n++ {
		resp, err := c.call(n, node.Scan{Frag: name, Epoch: rs.epoch(name), Unmetered: true})
		if err != nil {
			return err
		}
		for _, t := range resp.(node.RowsResult).Tuples {
			if home := part.NodeFor(t[pi]); home != n {
				return fmt.Errorf("cluster: auxiliary relation %q tuple %v stored at node %d, belongs at %d", name, t, n, home)
			}
		}
	}
	return nil
}

// CheckGlobalIndexConsistency verifies the named global index agrees with
// the base relation: every entry's global row id resolves to a live tuple
// with the indexed value, and every base tuple has exactly one entry. Index
// entries and row ids carry no versions, so the check reads the live state
// with the table's writers excluded.
func (c *Cluster) CheckGlobalIndexConsistency(name string) error {
	h := c.lm.AcquireShared()
	defer h.Release()
	// Only DDL redefines the index, and DDL needs the global lock
	// exclusively.
	gi, err := c.Catalog().GlobalIndex(name)
	if err != nil {
		return err
	}
	c.claimShared(h, []string{gi.Table})
	// With the table's writers excluded no cutover can move the map either:
	// the check reads one catalog throughout.
	cat := c.Catalog()
	t, err := cat.Table(gi.Table)
	if err != nil {
		return err
	}
	ci := t.Schema.MustColIndex(gi.Col)

	// Base side: (node, row) -> value.
	type loc struct {
		node int
		row  uint64
	}
	baseRows := map[loc]types.Value{}
	for n := 0; n < c.NumNodes(); n++ {
		resp, err := c.call(n, node.Scan{Frag: gi.Table, Unmetered: true})
		if err != nil {
			return err
		}
		rr := resp.(node.RowsResult)
		for i := range rr.Rows {
			baseRows[loc{n, uint64(rr.Rows[i])}] = rr.Tuples[i][ci]
		}
	}
	// Index side.
	entries := 0
	for n := 0; n < c.NumNodes(); n++ {
		resp, err := c.call(n, node.GIScan{GI: name})
		if err != nil {
			return err
		}
		sc := resp.(node.GIScanResult)
		for i, g := range sc.Gs {
			entries++
			val, ok := baseRows[loc{int(g.Node), uint64(g.Row)}]
			if !ok {
				return fmt.Errorf("cluster: global index %q entry %v -> (%d,%d) dangles", name, sc.Vals[i], g.Node, g.Row)
			}
			if !types.Equal(val, sc.Vals[i]) {
				return fmt.Errorf("cluster: global index %q entry says %v, base tuple has %v", name, sc.Vals[i], val)
			}
			// Entry must live at the hash home of its value.
			if home := cat.Partitioner().NodeFor(sc.Vals[i]); home != n {
				return fmt.Errorf("cluster: global index %q entry for %v stored at node %d, belongs at %d", name, sc.Vals[i], n, home)
			}
		}
	}
	if entries != len(baseRows) {
		return fmt.Errorf("cluster: global index %q has %d entries for %d base tuples", name, entries, len(baseRows))
	}
	return nil
}

// CheckAllStructures verifies every auxiliary relation, every global index
// and every view of the published catalog against the base relations, each
// in a read of its own.
func (c *Cluster) CheckAllStructures() error {
	cat := c.Catalog()
	for _, table := range cat.Tables() {
		for _, ar := range cat.AuxRelsFor(table) {
			if err := c.CheckAuxRelConsistency(ar.Name); err != nil {
				return err
			}
		}
		for _, gi := range cat.GlobalIndexesFor(table) {
			if err := c.CheckGlobalIndexConsistency(gi.Name); err != nil {
				return err
			}
		}
	}
	for _, v := range cat.Views() {
		if err := c.CheckViewConsistency(v); err != nil {
			return err
		}
	}
	return nil
}

// bagEqual compares two tuple bags.
func bagEqual(got, want []types.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows vs %d expected", len(got), len(want))
	}
	counts := map[uint64]int{}
	for _, t := range want {
		counts[t.Hash()]++
	}
	for _, t := range got {
		h := t.Hash()
		counts[h]--
		if counts[h] < 0 {
			return fmt.Errorf("unexpected tuple %v", t)
		}
	}
	return nil
}

// DeleteAll removes every tuple of the table (maintaining structures and
// views); convenience for workload teardown in long-running examples.
func (c *Cluster) DeleteAll(table string) (int, error) {
	deleted, err := c.Delete(table, expr.True)
	return len(deleted), err
}

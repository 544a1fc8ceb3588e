package cluster

// The three pieces migration (migrate.go) and replication (replicate.go)
// share. Everything the maintenance methods touch — base fragment,
// auxiliary relation, global index, view fragment — is "elements
// hash-partitioned on one attribute", so describing a structure (fragSpec),
// re-applying a mutation to another copy of its slots (splitTo) and
// bulk-copying slots to another node (copySlots) each exist once; a
// consumer supplies only where the copies live (slotSink).

import (
	"fmt"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/node"
	"joinview/internal/types"
)

// fragSpec describes one hash-partitioned structure of the catalog.
type fragSpec struct {
	Name string
	// Owner is the base table (for the table itself, its auxiliary
	// relations and its global indexes) or the view whose claim every
	// writer of the structure holds.
	Owner string
	// GI marks a global index: entries partition on their value, PartIdx is
	// -1 and Schema nil. DistClustered is its catalog flag.
	GI            bool
	DistClustered bool
	// Schema and ClusterCol lay out a fragment; PartCol is the partitioning
	// attribute (the hint column of value-addressed deletes), PartIdx its
	// position in the tuples.
	Schema     *types.Schema
	ClusterCol string
	PartCol    string
	PartIdx    int
	// Table is the owning base table (nil for a view's spec), AR and View
	// the catalog entry of an auxiliary relation or view, GICol the column
	// a global index covers.
	Table *catalog.Table
	AR    *catalog.AuxRel
	View  *catalog.View
	GICol string
}

func tableSpec(t *catalog.Table) fragSpec {
	return fragSpec{
		Name: t.Name, Owner: t.Name, Table: t, Schema: t.Schema, ClusterCol: t.ClusterCol,
		PartCol: t.PartitionCol, PartIdx: t.Schema.MustColIndex(t.PartitionCol),
	}
}

func auxRelSpec(ar *catalog.AuxRel, t *catalog.Table) fragSpec {
	return fragSpec{
		Name: ar.Name, Owner: ar.Table, Table: t, AR: ar, Schema: ar.Schema, ClusterCol: ar.PartitionCol,
		PartCol: ar.PartitionCol, PartIdx: ar.Schema.MustColIndex(ar.PartitionCol),
	}
}

func globalIndexSpec(gi *catalog.GlobalIndex, t *catalog.Table) fragSpec {
	return fragSpec{
		Name: gi.Name, Owner: gi.Table, Table: t, GI: true, DistClustered: gi.DistClustered,
		GICol: gi.Col, PartIdx: -1,
	}
}

func viewSpec(v *catalog.View) fragSpec {
	q := v.PartitionQualified()
	return fragSpec{
		Name: v.Name, Owner: v.Name, View: v, Schema: v.Schema, ClusterCol: q,
		PartCol: q, PartIdx: v.Schema.MustColIndex(q),
	}
}

// isTable reports whether the spec is a base table's own fragment.
func (s fragSpec) isTable() bool { return s.Table != nil && s.Name == s.Owner }

// fragSpecs is the one ordered walk of the catalog's partitioned
// structures: per base table (sorted) the table, its auxiliary relations
// and its global indexes, then the views (sorted).
func (c *Cluster) fragSpecs() []fragSpec {
	var out []fragSpec
	for _, tn := range c.cat.Tables() {
		t, err := c.cat.Table(tn)
		if err != nil {
			continue // dropped between the listing and the lookup
		}
		out = append(out, tableSpec(t))
		for _, ar := range c.cat.AuxRelsFor(tn) {
			out = append(out, auxRelSpec(ar, t))
		}
		for _, gi := range c.cat.GlobalIndexesFor(tn) {
			out = append(out, globalIndexSpec(gi, t))
		}
	}
	for _, vn := range c.cat.Views() {
		if v, err := c.cat.View(vn); err == nil {
			out = append(out, viewSpec(v))
		}
	}
	return out
}

// fragGroups cuts fragSpecs into runs with one owner: a base table with
// its derived structures, or a single view. One group is what a copy
// claims, copies and arms together.
func (c *Cluster) fragGroups() [][]fragSpec {
	var out [][]fragSpec
	for _, s := range c.fragSpecs() {
		if n := len(out); n > 0 && out[n-1][0].Owner == s.Owner {
			out[n-1] = append(out[n-1], s)
			continue
		}
		out = append(out, []fragSpec{s})
	}
	return out
}

// giSpecs returns a group's global indexes (they trail the group).
func giSpecs(group []fragSpec) []fragSpec {
	for i, s := range group {
		if s.GI {
			return group[i:]
		}
	}
	return nil
}

// fragSpecOf resolves one structure by name; ok is false for names the
// catalog does not hold (query temporaries, shadows, staging).
func (c *Cluster) fragSpecOf(name string, gi bool) (fragSpec, bool) {
	if gi {
		if g, err := c.cat.GlobalIndex(name); err == nil {
			if t, err := c.cat.Table(g.Table); err == nil {
				return globalIndexSpec(g, t), true
			}
		}
		return fragSpec{}, false
	}
	if t, err := c.cat.Table(name); err == nil {
		return tableSpec(t), true
	}
	if ar, err := c.cat.AuxRel(name); err == nil {
		if t, err := c.cat.Table(ar.Table); err == nil {
			return auxRelSpec(ar, t), true
		}
	}
	if v, err := c.cat.View(name); err == nil {
		return viewSpec(v), true
	}
	return fragSpec{}, false
}

// createReq allocates the structure, empty, under the given name.
func (s fragSpec) createReq(name string, pageRows int) any {
	if s.GI {
		return node.CreateGlobalIndex{Name: name, DistClustered: s.DistClustered}
	}
	return node.CreateFragment{Name: name, Schema: s.Schema, ClusterCol: s.ClusterCol, PageRows: pageRows}
}

// dropReq removes the structure's copy called name.
func (s fragSpec) dropReq(name string) any {
	if s.GI {
		return node.DropGlobalIndexFrag{Name: name}
	}
	return node.DropFragment{Name: name}
}

// indexReqs builds a base table's secondary indexes (primary copy only).
func (s fragSpec) indexReqs() []any {
	if !s.isTable() {
		return nil
	}
	out := make([]any, 0, len(s.Table.Indexes))
	for _, ix := range s.Table.Indexes {
		out = append(out, node.CreateIndex{Frag: s.Name, Name: ix.Name, Col: ix.Col})
	}
	return out
}

// scanReq reads every element of the copy called name, unmetered.
func (s fragSpec) scanReq(name string) any {
	if s.GI {
		return node.GIScan{GI: name}
	}
	return node.ScanWithRows{Frag: name}
}

// slotSink is what one keeper of slot copies supplies; the splitting,
// bucketing and rebuilding are shared.
type slotSink struct {
	// route appends to out the nodes holding a copy of the slot of one
	// partition value.
	route func(v types.Value, out []int) []int
	// name is what the copy of a structure is called there.
	name func(frag string) string
	// deliver sends one rebuilt request carrying elems elements.
	deliver func(dst int, req any, elems int) error
	// metered: copies charge insert I/O like the original write did.
	metered bool
}

// splitTo re-applies a mutation of the given structure to the sink's
// copies: one rebuilt request per destination, in ascending node order.
func splitTo(mut node.Mutation, spec fragSpec, s slotSink) error {
	byDst := mut.Split(spec.PartIdx, s.route)
	for _, d := range sortedKeys(byDst) {
		if err := s.deliver(d, mut.Rebuild(s.name(spec.Name), spec.PartCol, byDst[d], s.metered), len(byDst[d])); err != nil {
			return err
		}
	}
	return nil
}

// tapMutation is called by the resilient delivery layer on every
// successfully applied mutating sub-request — normal path, broadcast path
// and in-doubt resolution, compensations included. It is the one place
// "applied" is observed, and both consumers hang off it: a statement's
// forward work enters its scope's undo log, and every copy of a slot sees
// exactly the physical history its primary sees. Recovery, repair and
// migration traffic (rawCall/rawDeliver) is deliberately not tapped: it
// regenerates or moves state wholesale and would double-apply.
func (c *Cluster) tapMutation(sc *stmtScope, how delivery, to int, wreq, resp any) {
	if s, ok := wreq.(node.Seq); ok {
		wreq = s.Req
	}
	if sc != nil && how == forward {
		sc.record(to, wreq, resp)
	}
	c.migMu.RLock()
	m := c.mig
	c.migMu.RUnlock()
	c.mirror(sc, to, wreq, resp, m)
}

// mirror re-applies one mutation applied at node `to` to the other copies
// of the slots it touched: the follower shadows when replication is on
// (deliveries of statement sc, when there is one), and the staging
// fragments of the in-flight migration m once the structure's snapshot copy
// is armed. Under replication fragment DDL is also forwarded, to the same
// node's shadow.
func (c *Cluster) mirror(sc *stmtScope, to int, req, resp any, m *migration) {
	repl := c.replOn()
	if !repl && m == nil {
		return
	}
	mut := node.SplitMutation(req, resp)
	if replSkip(mut.Target) {
		return
	}
	switch mut.Class {
	case node.MirrorDDL:
		// A drop's catalog entry is already gone when its broadcast runs, so
		// DDL is forwarded by name: at RF >= 2 every cataloged structure has
		// a shadow on every node.
		if repl {
			c.deliverMirror(sc, to, mut.Rename(shadowName(mut.Target)), 0)
		}
	case node.MirrorSplit:
		staging := m != nil && m.isArmed(mut.Target)
		if mut.Len() == 0 || !(repl || staging) {
			return
		}
		spec, ok := c.fragSpecOf(mut.Target, mut.GI)
		if !ok {
			return
		}
		// Neither sink can fail: a mirror never decides a statement's outcome.
		if repl {
			_ = splitTo(mut, spec, c.followerSink(sc, spec.Name))
		}
		if staging {
			_ = splitTo(mut, spec, m.sink(to, m.enqueue))
		}
	}
}

// copySlots bulk-copies slots of one structure: scan the copy called from
// at every source, bucket the elements by the sink's route and insert each
// destination's share, unmetered, in one request under the sink's name.
// The caller holds a claim that keeps the structure's writers out.
func copySlots(spec fragSpec, from string, srcs []int, scan func(src int, req any) (any, error), s slotSink) error {
	ins := node.Insert{Frag: spec.Name, Unmetered: true}
	ents := node.GIInsertBatch{GI: spec.Name}
	for _, src := range srcs {
		resp, err := scan(src, spec.scanReq(from))
		if err != nil {
			return fmt.Errorf("cluster: copying %q from node %d: %w", from, src, err)
		}
		if spec.GI {
			sc := resp.(node.GIScanResult)
			ents.Vals, ents.Gs = append(ents.Vals, sc.Vals...), append(ents.Gs, sc.Gs...)
		} else {
			ins.Tuples = append(ins.Tuples, resp.(node.RowsResult).Tuples...)
		}
	}
	var all any = ins
	if spec.GI {
		all = ents
	}
	return splitTo(node.SplitMutation(all, nil), spec, s)
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

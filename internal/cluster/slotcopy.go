package cluster

// The pieces migration (migrate.go) and replication (replicate.go) share.
// Everything the maintenance methods touch — base fragment, auxiliary
// relation, global index, view fragment — is "elements hash-partitioned on
// one attribute", so describing a structure (fragSpec), re-applying a
// mutation to another copy of its slots (splitTo) and bulk-copying slots to
// another node (copySlots) each exist once, and so does the online copy
// protocol around them: a copySession names the nodes being brought in sync
// as new holders of a slot, copyGroup snapshots one owner's structures into
// their follower shadows and arms the live mirror, and followerSink — the
// only live tap — keeps them current until a map install makes them
// official (re-replication) or PromoteSlots turns them into primary data
// (migration).

import (
	"fmt"
	"sort"
	"sync"

	"joinview/internal/catalog"
	"joinview/internal/hashpart"
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

// fragSpecs is the one ordered walk of a catalog's partitioned
// structures: per base table (sorted) the table, its auxiliary relations
// and its global indexes, then the views (sorted).
func fragSpecs(cat *catalog.Catalog) []fragSpec {
	var out []fragSpec
	for _, tn := range cat.Tables() {
		t, _ := cat.Table(tn)
		out = append(out, tableSpec(t))
		for _, ar := range cat.AuxRelsFor(tn) {
			out = append(out, auxRelSpec(ar, t))
		}
		for _, gi := range cat.GlobalIndexesFor(tn) {
			out = append(out, globalIndexSpec(gi, t))
		}
	}
	for _, vn := range cat.Views() {
		v, _ := cat.View(vn)
		out = append(out, viewSpec(v))
	}
	return out
}

// fragGroups cuts fragSpecs into runs with one owner: a base table with
// its derived structures, or a single view. One group is what a copy
// claims, copies and arms together.
func fragGroups(cat *catalog.Catalog) [][]fragSpec {
	var out [][]fragSpec
	for _, s := range fragSpecs(cat) {
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
// catalog does not hold (shadows, staging).
func fragSpecOf(cat *catalog.Catalog, name string, gi bool) (fragSpec, bool) {
	if gi {
		if g, err := cat.GlobalIndex(name); err == nil {
			t, _ := cat.Table(g.Table)
			return globalIndexSpec(g, t), true
		}
		return fragSpec{}, false
	}
	if t, err := cat.Table(name); err == nil {
		return tableSpec(t), true
	}
	if ar, err := cat.AuxRel(name); err == nil {
		t, _ := cat.Table(ar.Table)
		return auxRelSpec(ar, t), true
	}
	if v, err := cat.View(name); err == nil {
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

// moveReq moves the elements of the given hash slots from the node-local
// copy called from into the one called to (shadow → primary promotes them,
// primary → shadow demotes them).
func (s fragSpec) moveReq(from, to string, mod int, slots []int) any {
	if s.GI {
		return node.GIPromoteSlots{Src: from, Dst: to, Mod: mod, Slots: slots}
	}
	return node.PromoteSlots{Src: from, Dst: to, PartIdx: s.PartIdx, Mod: mod, Slots: slots}
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
	c.mirror(sc, to, wreq, resp)
}

// mirror re-applies one mutation applied at node `to` to the other copies
// of the slots it touched — the follower shadows (followerSink), as
// deliveries of statement sc when there is one. Without replication and
// with no copy in flight there are none, and the check is one pointer load.
// Under replication fragment DDL is also forwarded, to the same node's
// shadow.
func (c *Cluster) mirror(sc *stmtScope, to int, req, resp any) {
	repl := c.replOn()
	if !repl && c.sess.Load() == nil {
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
		if mut.Len() == 0 {
			return
		}
		if spec, ok := fragSpecOf(c.catalogOf(sc), mut.Target, mut.GI); ok {
			// The sink cannot fail: a mirror never decides a statement's outcome.
			_ = splitTo(mut, spec, c.followerSink(sc, spec.Name))
		}
	}
}

// copySession is the one online slot copy in flight: the nodes being
// brought in sync as holders of slots they do not hold under the installed
// map — the followers a re-replication round restores, or the destinations
// of a migration's moving slots. A structure whose snapshot finished is
// armed: from then on followerSink mirrors its writers to the targets too.
type copySession struct {
	targets map[int][]int // slot -> nodes receiving a copy of it
	total   int           // owner groups to copy

	mu     sync.Mutex
	armed  map[string]bool
	done   int
	broken bool // a live mirror to a target failed: its copy is incomplete
}

// beginCopy registers the cluster's copy session; only one runs at a time.
func (c *Cluster) beginCopy(targets map[int][]int) (*copySession, error) {
	sess := &copySession{targets: targets, total: len(fragGroups(c.Catalog())), armed: map[string]bool{}}
	if !c.sess.CompareAndSwap(nil, sess) {
		return nil, fmt.Errorf("cluster: another slot copy (migration or re-replication) is in flight")
	}
	return sess, nil
}

// arm marks one copied group's structures. Must be called while the copy
// claim is still held, so no mutation lands between snapshot and tap.
func (s *copySession) arm(names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		s.armed[n] = true
	}
	s.done++
}

func (s *copySession) isArmed(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.armed[name]
}

// mirrorFailed records that a live mirror to dst was lost; if dst is one of
// the session's targets its copy can no longer be trusted.
func (s *copySession) mirrorFailed(dst int) {
	if s == nil {
		return
	}
	for _, fs := range s.targets {
		if containsInt(fs, dst) {
			s.mu.Lock()
			s.broken = true
			s.mu.Unlock()
			return
		}
	}
}

// intact reports whether every target still holds a complete copy: no live
// mirror was lost and no target node is down (mirrors skip a down node).
func (c *Cluster) intact(s *copySession) error {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken {
		return fmt.Errorf("cluster: a live mirror to a copy target failed")
	}
	for _, fs := range s.targets {
		for _, f := range fs {
			if c.isDown(f) {
				return fmt.Errorf("%w: copy target node %d went down", ErrDegraded, f)
			}
		}
	}
	return nil
}

// copyGroup snapshots one base table with its auxiliary relations and
// global indexes, or one view, from the primaries into the session
// targets' shadows, under lockRead on the owner (blocking exactly its
// writers), and arms the group before the lock is released. shipped is told how many elements each delivered batch held.
func (c *Cluster) copyGroup(sess *copySession, group []fragSpec, call func(to int, req any) (any, error), shipped func(elems int)) error {
	h := c.lockRead(group[0].Owner)
	defer h.Release()
	pm := c.Catalog().Partitioner().Map()
	srcSet := map[int]bool{}
	for s := range sess.targets {
		srcSet[pm.Owner[s]] = true
	}
	srcs := sortedKeys(srcSet)
	shadows := slotSink{
		route: func(v types.Value, out []int) []int { return append(out, sess.targets[pm.Slot(v)]...) },
		name:  shadowName,
		deliver: func(dst int, req any, elems int) error {
			if _, err := call(dst, req); err != nil {
				return fmt.Errorf("cluster: slot copy at node %d: %w", dst, err)
			}
			shipped(elems)
			return nil
		},
	}
	names := make([]string, len(group))
	for i, spec := range group {
		names[i] = spec.Name
		if err := copySlots(spec, srcs, call, shadows); err != nil {
			return err
		}
	}
	sess.arm(names...)
	return nil
}

// giRegister applies a batch of global-index entry insertions or deletions
// to every copy of each entry's slot under map pm: the owner's index
// fragment and the followers' shadows. Failover and migration both
// re-register base rows that changed identity this way.
func giRegister(gi fragSpec, entries any, pm hashpart.Map, call func(to int, req any) (any, error)) error {
	mut := node.SplitMutation(entries, nil)
	register := func(name func(string) string, holders func(slot int) []int) error {
		return splitTo(mut, gi, slotSink{
			route: func(v types.Value, out []int) []int { return append(out, holders(pm.Slot(v))...) },
			name:  name,
			deliver: func(n int, req any, _ int) error {
				if _, err := call(n, req); err != nil {
					return fmt.Errorf("cluster: re-registering %q at node %d: %w", name(gi.Name), n, err)
				}
				return nil
			},
		})
	}
	if err := register(func(g string) string { return g }, func(s int) []int { return pm.Owner[s : s+1] }); err != nil {
		return err
	}
	return register(shadowName, pm.Followers)
}

// giVals projects base tuples onto the column a global index covers.
func giVals(gi fragSpec, tuples []types.Tuple) []types.Value {
	ci := gi.Table.Schema.MustColIndex(gi.GICol)
	vals := make([]types.Value, len(tuples))
	for i, tup := range tuples {
		vals[i] = tup[ci]
	}
	return vals
}

// copySlots bulk-copies slots of one structure: scan its primary copy at
// every source, bucket the elements by the sink's route and insert each
// destination's share, unmetered, in one request under the sink's name.
// The caller holds a claim that keeps the structure's writers out.
func copySlots(spec fragSpec, srcs []int, scan func(src int, req any) (any, error), s slotSink) error {
	ins := node.Insert{Frag: spec.Name, Unmetered: true}
	ents := node.GIInsertBatch{GI: spec.Name}
	for _, src := range srcs {
		resp, err := scan(src, spec.scanReq(spec.Name))
		if err != nil {
			return fmt.Errorf("cluster: copying %q from node %d: %w", spec.Name, src, err)
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

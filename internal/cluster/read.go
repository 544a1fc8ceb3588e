package cluster

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/lockmgr"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// readScope is one consistent read of the cluster: everything read through
// it belongs to one statement prefix. Opening it heals a degraded
// replicated cluster first (promoting the down nodes' slots to surviving
// followers), then takes the global lock shared — fencing DDL, recovery and
// failover promotion — and holds, until end, either
//
//   - a pinned snapshot (MVCC on and every node up): the committed epochs of
//     the named relations and everything published with them, read behind
//     the cutover's readFence with no table claims, so concurrent writers
//     neither block the read nor leak a partial statement into it; or
//   - lockRead's exclusion of every in-flight writer of the named relations
//     (MVCC off, LockedReads, or a node down: the failover read recombines
//     primaries and promoted followers, whose promotion left no versions),
//     reading the live state.
//
// Never nothing. Everything the scope reads of the catalog comes from cat,
// loaded once those locks are held. Callers must hold no cluster lock.
type readScope struct {
	c    *Cluster
	cat  *catalog.Catalog
	h    *lockmgr.Held
	snap *epochSnap // nil: h excludes the writers instead
}

// beginRead opens a read scope over the named base tables, auxiliary
// relations or views.
func (c *Cluster) beginRead(names ...string) *readScope {
	rs, _ := c.beginReadOn(func(*catalog.Catalog) ([]string, error) { return names, nil }) // a fixed pick cannot fail
	return rs
}

// beginReadOn opens a read scope over the relations pick names; an error
// from pick (the object is gone) is returned. pick sees the catalog loaded
// once the global lock is held shared: only DDL changes which relations
// exist, and DDL needs that lock exclusively, so the scope's own catalog —
// loaded once its fence or claims also hold the partition map still —
// names the same ones.
func (c *Cluster) beginReadOn(pick func(cat *catalog.Catalog) ([]string, error)) (*readScope, error) {
	_ = c.heal() // what cannot be healed is reported by rows as unreachable
	rs := &readScope{c: c, h: c.lm.AcquireShared()}
	names, err := pick(c.Catalog())
	if err != nil {
		rs.h.Release()
		return nil, err
	}
	if _, degraded := c.firstDown(); c.mvcc != nil && !degraded {
		c.readFence.RLock()
		rs.cat = c.Catalog()
		rs.snap = c.mvcc.snapshot(publishSets(rs.cat, names))
	} else {
		c.claimShared(rs.h, names)
		rs.cat = c.Catalog()
	}
	return rs, nil
}

// end closes the scope. Safe to call exactly once.
func (rs *readScope) end() {
	if rs.snap != nil {
		rs.snap.release()
		rs.c.readFence.RUnlock()
	}
	rs.h.Release()
}

// epoch is the epoch to read frag at: its pinned one, or 0 — the live state
// — without a snapshot and for fragments outside the pin set.
func (rs *readScope) epoch(frag string) uint64 {
	if rs.snap == nil {
		return 0
	}
	return rs.snap.epoch(frag)
}

// rows answers one fragment at the scope's epoch from every node: scan I/O
// charged when metered, free otherwise (verification, statistics). With
// nodes down and not failed over, the survivors' rows come back together
// with a *PartialError naming the slots that are unreachable; once every
// down node is failed over the read is complete — the broadcast answers for
// the dead nodes with empty results, their data lives at the promoted
// followers.
func (rs *readScope) rows(frag string, metered bool) ([]types.Tuple, error) {
	c := rs.c
	epoch := rs.epoch(frag)
	var req any = node.AllRows{Frag: frag, Epoch: epoch}
	if metered {
		req = node.Scan{Frag: frag, Epoch: epoch}
	}
	_, degraded := c.firstDown()
	if !degraded || c.replServesComplete() {
		if degraded {
			c.rstats.RecordFailoverRead()
		}
		resps, err := c.tr.Broadcast(netsim.Coordinator, req)
		if err != nil {
			return nil, err
		}
		return tuplesOf(resps), nil
	}
	resps := make([]any, c.NumNodes())
	var skipped []int
	for n := range resps {
		var err error
		if resps[n], err = c.call(n, req); err != nil {
			if _, down := fault.IsNodeDown(err); !down {
				return nil, err
			}
			skipped = append(skipped, n)
		}
	}
	if len(skipped) == 0 {
		return tuplesOf(resps), nil
	}
	m := rs.cat.Partitioner().Map()
	slots := 0
	for _, n := range skipped {
		slots += len(m.SlotsOwnedBy(n))
	}
	return tuplesOf(resps), &PartialError{Frag: frag, Down: skipped, Slots: slots}
}

// unmetered is rows without scan I/O.
func (rs *readScope) unmetered(frag string) ([]types.Tuple, error) { return rs.rows(frag, false) }

// tuplesOf concatenates the tuples of per-node RowsResult responses (nil
// slots — skipped nodes — contribute nothing).
func tuplesOf(resps []any) []types.Tuple {
	var out []types.Tuple
	for _, r := range resps {
		if r != nil {
			out = append(out, r.(node.RowsResult).Tuples...)
		}
	}
	return out
}

// PartialError wraps ErrPartial with which nodes were skipped and how many
// hash slots their absence makes unreachable. errors.Is(err, ErrPartial)
// keeps matching it.
type PartialError struct {
	// Frag is the fragment the partial read was answered for.
	Frag string
	// Down lists the node ids skipped as unreachable (sorted).
	Down []int
	// Slots counts the hash slots owned by the down nodes: the share of
	// the key space the result is missing.
	Slots int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("%v: fragment %q: nodes %v down (%d slots unreachable)",
		ErrPartial, e.Frag, e.Down, e.Slots)
}

// Unwrap makes errors.Is(err, ErrPartial) hold.
func (e *PartialError) Unwrap() error { return ErrPartial }

// readOne reads one whole relation or view in a scope of its own.
func (c *Cluster) readOne(name string, metered bool) ([]types.Tuple, error) {
	rs := c.beginRead(name)
	defer rs.end()
	return rs.rows(name, metered)
}

// TableRows returns every stored tuple of a base relation or auxiliary
// relation, unmetered. When the cluster is degraded the surviving nodes'
// rows are returned together with ErrPartial.
func (c *Cluster) TableRows(name string) ([]types.Tuple, error) {
	return c.readOne(name, false)
}

// RelationRows reads several base relations, auxiliary relations or views
// in one read scope, so out[i] — the rows of names[i] — all belong to the
// same statement prefix. Unmetered; a degraded cluster fails with
// ErrPartial.
func (c *Cluster) RelationRows(names ...string) ([][]types.Tuple, error) {
	rs := c.beginRead(names...)
	defer rs.end()
	out := make([][]types.Tuple, len(names))
	for i, n := range names {
		var err error
		if out[i], err = rs.unmetered(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ViewRows returns the materialized content of a view, unmetered. When the
// cluster is degraded the surviving nodes' rows are returned together with
// ErrPartial.
func (c *Cluster) ViewRows(name string) ([]types.Tuple, error) {
	rs := c.beginRead(name)
	defer rs.end()
	if _, err := rs.cat.View(name); err != nil {
		return nil, err
	}
	return rs.rows(name, false)
}

// ScanFragmentMetered reads a whole relation or view with scan I/O charged
// (the query-side counterpart of ViewRows, which is an unmetered
// verification helper). Use it to compare "query the materialized view"
// against QueryJoin's recompute cost. When the cluster is degraded the
// surviving nodes' rows are returned together with ErrPartial.
func (c *Cluster) ScanFragmentMetered(name string) ([]types.Tuple, error) {
	return c.readOne(name, true)
}

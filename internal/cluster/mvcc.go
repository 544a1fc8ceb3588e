package cluster

import (
	"sync"

	"joinview/internal/catalog"
)

// MVCC snapshot reads: the coordinator tracks one commit epoch per
// fragment name. A writer statement stamps every mutating request for a
// fragment with commit+1 — stable for the statement's whole run, because
// only the holder of the fragment's exclusive lockmgr claim can publish —
// and publishes (bumps) all its fragments' epochs atomically right before
// releasing its claims. A reader captures the committed epochs of every
// fragment it will touch in one atomic step, pins them against garbage
// collection, and reads each fragment at its pinned epoch; storage inverts
// the version-log suffix newer than the pin (storage/mvcc.go). Readers
// hold only the global shared lock (readScope, read.go), so they never
// queue behind a writer and never block one; DDL, recovery and failover
// promotion still fence them via the global exclusive lock, and the
// migration cutover via the cluster's readFence.
//
// Committed epochs start at 1, so a snapshot epoch is never 0 — 0 is the
// wire value for "unversioned, read the live state" (every legacy path).
// Aborted statements never publish: their forward and undo records share
// one unpublished stamp and cancel in any snapshot.

// epochTracker is the coordinator's epoch authority.
type epochTracker struct {
	mu     sync.Mutex
	commit map[string]uint64         // fragment -> last published epoch
	pins   map[string]map[uint64]int // fragment -> pinned epoch -> readers
}

func newEpochTracker() *epochTracker {
	return &epochTracker{
		commit: map[string]uint64{},
		pins:   map[string]map[uint64]int{},
	}
}

func (e *epochTracker) committedLocked(frag string) uint64 {
	if v, ok := e.commit[frag]; ok {
		return v
	}
	return 1
}

// writeEpoch returns the stamp for a mutation of frag by the statement
// currently holding its exclusive claim: committed+1.
func (e *epochTracker) writeEpoch(frag string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.committedLocked(frag) + 1
}

// publish bumps the committed epoch of every fragment in the set in one
// atomic step: a concurrent reader pins either all pre-statement or all
// post-statement epochs.
func (e *epochTracker) publish(frags []string) {
	e.mu.Lock()
	for _, f := range frags {
		e.commit[f] = e.committedLocked(f) + 1
	}
	e.mu.Unlock()
}

// floor returns the garbage-collection floor for frag: version records
// stamped at or below it reconstruct no pinned snapshot and may be
// dropped. With no pins that is the committed epoch itself — a snapshot
// at epoch E only needs the records newer than E.
func (e *epochTracker) floor(frag string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	fl := e.committedLocked(frag)
	for ep := range e.pins[frag] {
		if ep < fl {
			fl = ep
		}
	}
	return fl
}

// epochSnap is one reader's pinned snapshot.
type epochSnap struct {
	e      *epochTracker
	epochs map[string]uint64
}

// snapshot atomically captures and pins the committed epoch of every
// named fragment.
func (e *epochTracker) snapshot(frags []string) *epochSnap {
	s := &epochSnap{e: e, epochs: make(map[string]uint64, len(frags))}
	e.mu.Lock()
	for _, f := range frags {
		if _, dup := s.epochs[f]; dup {
			continue
		}
		ep := e.committedLocked(f)
		s.epochs[f] = ep
		p := e.pins[f]
		if p == nil {
			p = map[uint64]int{}
			e.pins[f] = p
		}
		p[ep]++
	}
	e.mu.Unlock()
	return s
}

// epoch returns the pinned epoch for frag, or 0 (live read) for fragments
// outside the pin set.
func (s *epochSnap) epoch(frag string) uint64 { return s.epochs[frag] }

// release unpins the snapshot. Safe to call exactly once.
func (s *epochSnap) release() {
	s.e.mu.Lock()
	for f, ep := range s.epochs {
		if p := s.e.pins[f]; p != nil {
			if p[ep] <= 1 {
				delete(p, ep)
				if len(p) == 0 {
					delete(s.e.pins, f)
				}
			} else {
				p[ep]--
			}
		}
	}
	s.e.mu.Unlock()
}

// mvccOn reports whether snapshot reads and epoch stamping are active:
// statements overlap (locks.go) and LockedReads is not set.
func (c *Cluster) mvccOn() bool { return c.mvcc != nil }

// writeEpoch returns the version stamp for mutating frag under the current
// statement's exclusive claim; 0 (record nothing) when MVCC is off.
func (c *Cluster) writeEpoch(frag string) uint64 {
	if c.mvcc == nil {
		return 0
	}
	return c.mvcc.writeEpoch(frag)
}

// gcFloorFor returns the snapshot GC floor piggybacked on mutating
// requests for frag; 0 (no-op) when MVCC is off.
func (c *Cluster) gcFloorFor(frag string) uint64 {
	if c.mvcc == nil {
		return 0
	}
	return c.mvcc.floor(frag)
}

// publishStmt publishes a successful statement on table, run on cat: the
// table, its auxiliary relations and its views move to their next
// committed epoch in one atomic step. Must run before the statement's
// claims are released.
func (c *Cluster) publishStmt(cat *catalog.Catalog, table string) {
	if c.mvcc == nil {
		return
	}
	c.mvcc.publish(publishSets(cat, []string{table}))
}

// publishSets lists, per named relation or view, it and the auxiliary
// relations and views a statement on it publishes with it, as cat defines
// them: what a read scope over the names pins, so a reader sees each
// relation together with everything its writers publish with it.
func publishSets(cat *catalog.Catalog, names []string) []string {
	var frags []string
	for _, n := range names {
		frags = append(frags, n)
		for _, a := range cat.AuxRelsFor(n) {
			frags = append(frags, a.Name)
		}
		for _, v := range cat.ViewsOn(n) {
			frags = append(frags, v.Name)
		}
	}
	return frags
}

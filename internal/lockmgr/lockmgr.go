// Package lockmgr is the coordinator's table-level lock manager. It
// replaces the cluster's former single statement mutex with named
// shared/exclusive resource locks, so statements on disjoint tables from
// concurrent sessions run in parallel while statements touching the same
// table (or a derived structure over it) still serialize.
//
// The locking protocol is two-level and deadlock-free by construction:
//
//  1. Every acquirer first takes the global lock — shared for ordinary
//     statements and reads, exclusive for operations that must see (and
//     leave) the whole cluster quiescent: DDL, recovery, checkpoints, and
//     every statement where the cluster's delivery stack does not let
//     statements overlap (internal/cluster/locks.go).
//  2. Holders of the global shared lock then take their resource locks in
//     sorted name order, strongest mode first on duplicates. Uniform
//     ordering means no cycle of waiters can form.
//
// Claims are granted for the life of one statement; there is no lock
// escalation or queueing fairness beyond what sync.RWMutex provides.
package lockmgr

import "sync"

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Shared admits concurrent readers of a resource.
	Shared Mode = iota
	// Exclusive admits one writer.
	Exclusive
)

// Claim names one resource and the mode to lock it in.
type Claim struct {
	Res  string
	Mode Mode
}

// S builds a shared claim.
func S(res string) Claim { return Claim{Res: res, Mode: Shared} }

// X builds an exclusive claim.
func X(res string) Claim { return Claim{Res: res, Mode: Exclusive} }

// Manager hands out statement-scoped locks.
type Manager struct {
	global sync.RWMutex

	mu  sync.Mutex
	res map[string]*sync.RWMutex
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{res: map[string]*sync.RWMutex{}}
}

func (m *Manager) resource(name string) *sync.RWMutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.res[name]
	if !ok {
		l = &sync.RWMutex{}
		m.res[name] = l
	}
	return l
}

// Held is an acquired set of locks. Release returns them; it is safe to
// call exactly once.
type Held struct {
	m       *Manager
	global  Mode
	claims  []Claim
	release []func()
}

// AcquireGlobal takes the global lock exclusively: the caller is the only
// statement running in the cluster until Release. Used for DDL, recovery
// and statements that may not overlap.
func (m *Manager) AcquireGlobal() *Held {
	m.global.Lock()
	return &Held{m: m, global: Exclusive}
}

// AcquireShared takes the global lock in shared mode and returns a handle
// with no resource locks yet. Between AcquireShared and Lock the caller
// may safely read cluster metadata (the catalog) to compute its claim
// set — global-exclusive holders (DDL) are excluded the whole time. A
// holder that never calls Lock (an MVCC snapshot reader) fences DDL and
// recovery only: it never queues behind — and never blocks — any writer
// statement's table claims.
func (m *Manager) AcquireShared() *Held {
	m.global.RLock()
	return &Held{m: m, global: Shared}
}

// Lock acquires the claims in deterministic sorted order (dedup: the
// strongest requested mode per resource wins). It must be called at most
// once per Held, before any conflicting work starts.
func (h *Held) Lock(claims ...Claim) {
	merged := map[string]Mode{}
	for _, c := range claims {
		if mode, ok := merged[c.Res]; !ok || c.Mode > mode {
			merged[c.Res] = c.Mode
		}
	}
	ordered := make([]Claim, 0, len(merged))
	for res, mode := range merged {
		ordered = append(ordered, Claim{Res: res, Mode: mode})
	}
	// Insertion sort by name: claim sets are tiny (a table plus its views
	// and their other base tables).
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Res < ordered[j-1].Res; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for _, c := range ordered {
		l := h.m.resource(c.Res)
		if c.Mode == Exclusive {
			l.Lock()
			h.release = append(h.release, l.Unlock)
		} else {
			l.RLock()
			h.release = append(h.release, l.RUnlock)
		}
	}
	h.claims = ordered
}

// Claims returns the granted resource claims, sorted by name (inspection
// and tests).
func (h *Held) Claims() []Claim { return h.claims }

// Release drops every resource lock in reverse acquisition order, then the
// global lock.
func (h *Held) Release() {
	for i := len(h.release) - 1; i >= 0; i-- {
		h.release[i]()
	}
	h.release = nil
	if h.global == Exclusive {
		h.m.global.Unlock()
	} else {
		h.m.global.RUnlock()
	}
}

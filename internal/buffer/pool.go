// Package buffer simulates a per-node buffer pool with LRU replacement.
//
// The paper's analytical model counts logical I/Os; its §3.3 experiments
// note that on the real system "substantial fractions of the base and
// auxiliary relations end up getting cached in main memory", which made
// the model "less accurate for large updates than for small". Attaching a
// Pool to a node's fragments splits the meters into logical accesses
// (model-comparable) and physical misses (what a cached system would
// actually pay), so that buffering effect can be reproduced and measured
// instead of hand-waved.
package buffer

import (
	"container/list"
	"sync/atomic"
)

// PageKey identifies one cached page. Fragments map their access patterns
// onto stable page surrogates: heap rows bucket by row id, clustered runs
// bucket by key (namespace distinguishes the schemes). Frag is the id the
// pool gave the fragment (NewFrag), so a touch hashes no name.
type PageKey struct {
	Frag FragID
	NS   uint8
	Page uint64
}

// FragID names a fragment's pages within one pool.
type FragID uint32

// Namespaces for PageKey.
const (
	// NSRow buckets heap pages by row id.
	NSRow uint8 = iota
	// NSKey buckets clustered-run pages by key hash.
	NSKey
)

// Stats counts pool activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// PhysicalIOs is the disk reads a cached system performs: the misses.
func (s Stats) PhysicalIOs() int64 { return s.Misses }

// Pool is an LRU page cache. Touch/Invalidate are not internally
// synchronized: like the storage fragments, a pool belongs to exactly one
// node, which serializes mutations. The counters are atomic, so Stats and
// ResetStats are safe from other goroutines (the cluster's metrics reader
// under the channel transport). A nil *Pool is valid and caches nothing
// (Touch reports every access as a miss without tracking).
type Pool struct {
	capacity int
	lru      *list.List // front = most recent; values are PageKey
	// frags indexes the resident pages by fragment id, then by slot(key):
	// a touch indexes a slice and looks up an integer, the cheapest map
	// key there is (a struct key hashes field by field, as dear as the
	// fragment name the id replaced).
	frags     []map[uint64]*list.Element
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	lastFrag  atomic.Uint32 // the last FragID handed out
}

// New creates a pool holding up to capacity pages; capacity <= 0 returns
// nil (caching disabled).
func New(capacity int) *Pool {
	if capacity <= 0 {
		return nil
	}
	return &Pool{capacity: capacity, lru: list.New()}
}

// slot is a page's key within its fragment's index. Page numbers are row
// ids over the page size or below a fragment's page count, far below
// 2^56, so the namespace fits beneath them.
func slot(k PageKey) uint64 { return k.Page<<8 | uint64(k.NS) }

// pages returns the index of the fragment's resident pages, making it on
// first use.
func (p *Pool) pages(frag FragID) map[uint64]*list.Element {
	if int(frag) >= len(p.frags) {
		p.frags = append(p.frags, make([]map[uint64]*list.Element, int(frag)+1-len(p.frags))...)
	}
	m := p.frags[frag]
	if m == nil {
		m = make(map[uint64]*list.Element)
		p.frags[frag] = m
	}
	return m
}

// NewFrag returns an id no other fragment of the pool has, for the keys
// of a new fragment's pages. A nil pool returns 0.
func (p *Pool) NewFrag() FragID {
	if p == nil {
		return 0
	}
	return FragID(p.lastFrag.Add(1))
}

// Touch records an access to the page, returning true on a hit. On a miss
// the page is brought in, evicting the least-recently-used page if the
// pool is full.
func (p *Pool) Touch(k PageKey) bool {
	if p == nil {
		return false
	}
	pages, s := p.pages(k.Frag), slot(k)
	if el, ok := pages[s]; ok {
		p.lru.MoveToFront(el)
		p.hits.Add(1)
		return true
	}
	p.misses.Add(1)
	if p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		bk := back.Value.(PageKey)
		delete(p.frags[bk.Frag], slot(bk))
		p.lru.Remove(back)
		p.evictions.Add(1)
	}
	pages[s] = p.lru.PushFront(k)
	return false
}

// Invalidate drops every cached page of the fragment (fragment dropped).
func (p *Pool) Invalidate(frag FragID) {
	if p == nil || int(frag) >= len(p.frags) {
		return
	}
	for _, el := range p.frags[frag] {
		p.lru.Remove(el)
	}
	p.frags[frag] = nil
}

// Resident returns the number of cached pages.
func (p *Pool) Resident() int {
	if p == nil {
		return 0
	}
	return p.lru.Len()
}

// Stats returns the counters. Safe for concurrent use.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}

// ResetStats zeroes the counters without dropping cached pages (so warm
// caches can be measured over a fresh window). Safe for concurrent use.
func (p *Pool) ResetStats() {
	if p == nil {
		return
	}
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
}

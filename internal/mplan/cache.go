package mplan

import (
	"sync"

	"joinview/internal/catalog"
	"joinview/internal/maintain"
	"joinview/internal/stats"
)

type cacheKey struct {
	table string
	op    maintain.Op
}

// Cache holds compiled plans keyed by (table, op), validated on every
// lookup against the catalog snapshot they were compiled for (a pointer
// compare) and the recorded statistics reads. Stale entries are evicted
// and recompiled in place; a stale plan can never be returned. Safe for
// concurrent use — DML statements on different tables look up plans in
// parallel, and DDL or a partition-map change (either publishes a new
// snapshot) implicitly invalidates every entry at once.
type Cache struct {
	mu    sync.RWMutex
	plans map[cacheKey]*Plan
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{plans: map[cacheKey]*Plan{}}
}

// Get returns a valid compiled plan for (table, op), compiling one on a
// miss. hit reports whether a cached plan was reused.
func (c *Cache) Get(cat *catalog.Catalog, st *stats.Stats, table string, op maintain.Op) (mp *Plan, hit bool, err error) {
	k := cacheKey{table: table, op: op}
	c.mu.RLock()
	cached := c.plans[k]
	c.mu.RUnlock()
	if cached != nil && cached.Valid(cat, st) {
		return cached, true, nil
	}
	fresh, err := Compile(cat, st, table, op)
	if err != nil {
		if cached != nil {
			// Evict the stale entry: the schema it was built for is gone.
			c.mu.Lock()
			if c.plans[k] == cached {
				delete(c.plans, k)
			}
			c.mu.Unlock()
		}
		return nil, false, err
	}
	c.mu.Lock()
	c.plans[k] = fresh
	c.mu.Unlock()
	return fresh, false, nil
}

// Peek returns the cached plan for (table, op) without validation or
// compilation — test and introspection hook.
func (c *Cache) Peek(table string, op maintain.Op) (*Plan, bool) {
	c.mu.RLock()
	mp, ok := c.plans[cacheKey{table: table, op: op}]
	c.mu.RUnlock()
	return mp, ok
}

// Len returns the number of cached plans (valid or stale).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// Purge drops every cached plan.
func (c *Cache) Purge() {
	c.mu.Lock()
	c.plans = map[cacheKey]*Plan{}
	c.mu.Unlock()
}

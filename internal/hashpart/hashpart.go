// Package hashpart implements deterministic hash partitioning of values
// across the data-server nodes of the parallel RDBMS, playing the role of
// Teradata's primary-index hash map: a tuple's home node is a pure function
// of its partitioning-attribute value and the current partition map.
//
// The map is versioned: an epoch-stamped slot→node table replaces the
// seed's fixed modulo, so cluster elasticity (AddNode/DecommissionNode)
// can reassign individual hash slots to new owners and publish a new map
// (with a new Partitioner) while statements keep routing through the old
// one. For a
// fixed topology the initial map (identity owners, one slot per node) is
// byte-identical to `hash % L`, which keeps every paper experiment golden.
package hashpart

import (
	"fmt"
	"sync"

	"joinview/internal/types"
)

// Map is an epoch-stamped assignment of hash slots to node ids. A value v
// belongs to slot Hash(v) % len(Owner), which lives on node Owner[slot].
// Maps are immutable once published; elasticity builds a modified copy and
// publishes it with an epoch bump at cutover.
type Map struct {
	// Epoch increases with every published map (topology reports and
	// the migration and failover logs carry it).
	Epoch uint64
	// Owner maps slot → node id. len(Owner) is the slot count (the hash
	// modulus).
	Owner []int
	// Nodes is the cluster size (bucket count for Spread); owners are in
	// [0, Nodes).
	Nodes int
	// Repl optionally maps slot → ordered follower nodes: the replicas of
	// the slot beyond its primary Owner[slot], in promotion order. nil (or
	// an empty per-slot list) means the slot is unreplicated — replication
	// factor 1, the paper's model and the default. When non-nil, Repl must
	// have one entry per slot, no follower may repeat within a slot, and no
	// follower may equal the slot's owner.
	Repl [][]int
}

// Identity returns the fixed-topology map over n nodes: n slots, slot i
// owned by node i — exactly `hash % n`.
func Identity(n int) Map {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = i
	}
	return Map{Epoch: 0, Owner: owner, Nodes: n}
}

// WithReplicas returns a copy of the map carrying k-way replication:
// every slot keeps its owner and gains k-1 followers placed ring-style
// (follower j of slot s is node (Owner[s]+j) mod Nodes), so no two
// replicas of a slot share a node. k <= 1 strips replication.
func (m Map) WithReplicas(k int) (Map, error) {
	d := m.Clone()
	if k <= 1 {
		d.Repl = nil
		return d, nil
	}
	if k > m.Nodes {
		return Map{}, fmt.Errorf("hashpart: replication factor %d exceeds node count %d", k, m.Nodes)
	}
	d.Repl = make([][]int, len(d.Owner))
	for s, o := range d.Owner {
		fs := make([]int, 0, k-1)
		for j := 1; j < k; j++ {
			fs = append(fs, (o+j)%m.Nodes)
		}
		d.Repl[s] = fs
	}
	return d, nil
}

// Followers returns the follower nodes of a slot (nil when unreplicated).
// The returned slice aliases the map; callers must not mutate it.
func (m Map) Followers(slot int) []int {
	if m.Repl == nil {
		return nil
	}
	return m.Repl[slot]
}

// Replicated reports whether any slot carries followers.
func (m Map) Replicated() bool {
	for _, fs := range m.Repl {
		if len(fs) > 0 {
			return true
		}
	}
	return false
}

// Clone deep-copies the map (callers mutate the copy, never a published
// map).
func (m Map) Clone() Map {
	c := Map{Epoch: m.Epoch, Owner: append([]int(nil), m.Owner...), Nodes: m.Nodes}
	if m.Repl != nil {
		c.Repl = make([][]int, len(m.Repl))
		for s, fs := range m.Repl {
			c.Repl[s] = append([]int(nil), fs...)
		}
	}
	return c
}

// Slot returns the hash slot of a value under this map.
func (m Map) Slot(v types.Value) int {
	return int(v.Hash() % uint64(len(m.Owner)))
}

// NodeFor returns the home node of a value under this map.
func (m Map) NodeFor(v types.Value) int {
	return m.Owner[v.Hash()%uint64(len(m.Owner))]
}

// SlotsOwnedBy lists the slots a node owns, ascending.
func (m Map) SlotsOwnedBy(n int) []int {
	var out []int
	for s, o := range m.Owner {
		if o == n {
			out = append(out, s)
		}
	}
	return out
}

// Doubled returns a copy with twice the slots and an unchanged
// value→node mapping: slot s and slot s+len(Owner) share s's owner
// (linear-hashing-style split, so only explicitly reassigned slots ever
// move data).
func (m Map) Doubled() Map {
	d := m.Clone()
	d.Owner = append(d.Owner, d.Owner...)
	return d
}

// Validate checks structural sanity: at least one slot, owners in range.
func (m Map) Validate() error {
	if m.Nodes < 1 {
		return fmt.Errorf("hashpart: invalid node count %d", m.Nodes)
	}
	if len(m.Owner) == 0 {
		return fmt.Errorf("hashpart: map has no slots")
	}
	for s, o := range m.Owner {
		if o < 0 || o >= m.Nodes {
			return fmt.Errorf("hashpart: slot %d owner %d out of range [0,%d)", s, o, m.Nodes)
		}
	}
	if m.Repl != nil {
		if len(m.Repl) != len(m.Owner) {
			return fmt.Errorf("hashpart: replica table has %d slots, owner table %d", len(m.Repl), len(m.Owner))
		}
		for s, fs := range m.Repl {
			seen := map[int]bool{m.Owner[s]: true}
			for _, f := range fs {
				if f < 0 || f >= m.Nodes {
					return fmt.Errorf("hashpart: slot %d follower %d out of range [0,%d)", s, f, m.Nodes)
				}
				if seen[f] {
					return fmt.Errorf("hashpart: slot %d places two replicas on node %d", s, f)
				}
				seen[f] = true
			}
		}
	}
	return nil
}

// Partitioner routes values to node ids through one Map. It is immutable:
// a new map means a new Partitioner, so a router loaded once routes a whole
// statement through the same map.
type Partitioner struct {
	m Map
	// scratch pools the per-Spread working slices (home assignments and
	// per-node counts): bucketing runs on every maintenance phase of every
	// statement, so reusing the scratch keeps the hot path allocation-flat.
	// A sync.Pool keeps reuse safe under concurrent sessions.
	scratch sync.Pool
}

// spreadScratch is the reusable working set of one Spread call.
type spreadScratch struct {
	homes  []int
	counts []int
}

// New returns a partitioner over n nodes with the identity map (slot i →
// node i), byte-identical to the seed's fixed `hash % n`. It panics if
// n < 1 (a cluster always has at least one node; the catalog validates
// user input earlier).
func New(n int) *Partitioner {
	if n < 1 {
		panic(fmt.Sprintf("hashpart: invalid node count %d", n))
	}
	return newPartitioner(Identity(n))
}

// For returns a partitioner routing through m. The map is validated and
// stored by value, so later caller mutations cannot reach the router.
func For(m Map) (*Partitioner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return newPartitioner(m.Clone()), nil
}

func newPartitioner(m Map) *Partitioner {
	p := &Partitioner{m: m}
	p.scratch.New = func() any { return &spreadScratch{counts: make([]int, m.Nodes)} }
	return p
}

// Map returns the partition map (immutable; Clone before mutating).
func (p *Partitioner) Map() Map { return p.m }

// Nodes returns the node count.
func (p *Partitioner) Nodes() int { return p.m.Nodes }

// NodeFor returns the home node of a value.
func (p *Partitioner) NodeFor(v types.Value) int { return p.m.NodeFor(v) }

// NodeForTuple returns the home node of tuple t partitioned on column col
// of schema s.
func (p *Partitioner) NodeForTuple(s *types.Schema, col string, t types.Tuple) (int, error) {
	i := s.ColIndex(col)
	if i < 0 {
		return 0, fmt.Errorf("hashpart: partition column %q not in schema %v", col, s.Names())
	}
	return p.NodeFor(t[i]), nil
}

// Spread partitions tuples by the named column, returning one bucket per
// node. Buckets preserve input order.
//
// Allocation discipline: two counting passes carve every bucket out of a
// single exactly-sized backing array, instead of growing each bucket with
// append. The returned buckets alias that backing array and stay valid
// after Spread returns; only the internal scratch is pooled and reused.
func (p *Partitioner) Spread(s *types.Schema, col string, tuples []types.Tuple) ([][]types.Tuple, error) {
	i := s.ColIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("hashpart: partition column %q not in schema %v", col, s.Names())
	}
	return p.SpreadIndex(i, tuples), nil
}

// SpreadIndex is Spread keyed by column position instead of name, for
// callers that already resolved the column against their schema.
func (p *Partitioner) SpreadIndex(i int, tuples []types.Tuple) [][]types.Tuple {
	m := &p.m
	buckets := make([][]types.Tuple, m.Nodes)
	if len(tuples) == 0 {
		return buckets
	}
	sc := p.scratch.Get().(*spreadScratch)
	defer p.scratch.Put(sc)
	if cap(sc.homes) < len(tuples) {
		sc.homes = make([]int, len(tuples))
	}
	homes := sc.homes[:len(tuples)]
	counts := sc.counts[:m.Nodes]
	for n := range counts {
		counts[n] = 0
	}
	for j, t := range tuples {
		n := m.NodeFor(t[i])
		homes[j] = n
		counts[n]++
	}
	backing := make([]types.Tuple, len(tuples))
	off := 0
	for n := 0; n < m.Nodes; n++ {
		buckets[n] = backing[off : off : off+counts[n]]
		off += counts[n]
	}
	for j, t := range tuples {
		n := homes[j]
		buckets[n] = append(buckets[n], t)
	}
	return buckets
}

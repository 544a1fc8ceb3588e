// Package btree implements an in-memory B+-tree keyed by byte slices, with
// duplicate keys allowed. It backs every index structure in the engine:
// clustered table fragments (key = cluster attribute, value = encoded row),
// non-clustered secondary indexes (value = local row id) and global-index
// fragments (value = encoded global row id list entries).
//
// Keys use the order-preserving encoding from internal/types, so bytewise
// comparison matches value order. Duplicates are kept in insertion order
// within a key.
package btree

import (
	"bytes"
	"fmt"
)

// degree is the maximum number of children of an interior node; leaves hold
// up to degree-1 entries. Chosen small enough to exercise splits in tests
// and large enough to keep trees shallow at benchmark scale.
const degree = 64

type entry struct {
	key []byte
	val []byte
}

type node struct {
	// entries holds the leaf payload (leaf nodes) or separator keys
	// (interior nodes: entries[i].key is the smallest key in children[i+1],
	// entries[i].val is nil).
	entries  []entry
	children []*node // nil for leaves
	next     *node   // leaf-level sibling link for range scans
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is a B+-tree mapping byte-slice keys to byte-slice values, allowing
// duplicate keys. The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of stored entries (duplicates counted).
func (t *Tree) Len() int { return t.size }

// Insert adds (key, val). Duplicate keys are allowed; within a key the new
// entry lands after existing entries with the same key. Key and value are
// retained by the tree (callers must not mutate them afterwards).
func (t *Tree) Insert(key, val []byte) {
	right, sep := t.root.insert(key, val)
	if right != nil {
		t.root = &node{
			entries:  []entry{{key: sep}},
			children: []*node{t.root, right},
		}
	}
	t.size++
}

// insert adds the entry to the subtree; if the node split, it returns the
// new right sibling and the separator key.
func (n *node) insert(key, val []byte) (*node, []byte) {
	if n.leaf() {
		// Position after all entries <= key (stable duplicate order).
		i := upperBound(n.entries, key)
		n.entries = append(n.entries, entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = entry{key: key, val: val}
	} else {
		ci := n.childIndex(key)
		right, sep := n.children[ci].insert(key, val)
		if right != nil {
			n.entries = append(n.entries, entry{})
			copy(n.entries[ci+1:], n.entries[ci:])
			n.entries[ci] = entry{key: sep}
			n.children = append(n.children, nil)
			copy(n.children[ci+2:], n.children[ci+1:])
			n.children[ci+1] = right
		}
	}
	if len(n.entries) < degree {
		return nil, nil
	}
	return n.split()
}

// split divides an overfull node in half, returning the new right sibling
// and the separator key to push up.
func (n *node) split() (*node, []byte) {
	mid := len(n.entries) / 2
	right := &node{}
	if n.leaf() {
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid:mid]
		right.next = n.next
		n.next = right
		return right, right.entries[0].key
	}
	sep := n.entries[mid].key
	right.entries = append(right.entries, n.entries[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.entries = n.entries[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, sep
}

// childIndex picks the child subtree that may contain key (descend right on
// equality so duplicates cluster and inserts stay stable).
func (n *node) childIndex(key []byte) int {
	i := upperBound(n.entries, key)
	return i
}

// upperBound returns the index of the first entry whose key is strictly
// greater than key.
func upperBound(entries []entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the index of the first entry whose key is >= key.
func lowerBound(entries []entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the values stored under key, in insertion order.
func (t *Tree) Get(key []byte) [][]byte {
	var out [][]byte
	t.Ascend(key, func(k, v []byte) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		out = append(out, v)
		return true
	})
	return out
}

// GetFirst returns the first value stored under the key, or (nil, false).
// Single-value callers (unique primary keys) use it to skip the slice
// allocation of Get.
func (t *Tree) GetFirst(key []byte) ([]byte, bool) {
	var out []byte
	found := false
	t.Ascend(key, func(k, v []byte) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		out, found = v, true
		return false
	})
	return out, found
}

// Contains reports whether at least one entry with the key exists.
func (t *Tree) Contains(key []byte) bool {
	found := false
	t.Ascend(key, func(k, v []byte) bool {
		found = bytes.Equal(k, key)
		return false
	})
	return found
}

// Delete removes one entry matching (key, val) — val compared bytewise —
// and reports whether an entry was removed. Passing a nil val removes the
// first entry with the key regardless of value.
//
// Deletion removes the entry from its leaf without rebalancing: leaves may
// underflow but never violate ordering, which keeps scans and searches
// correct. (Classic B+-tree merge/borrow is deliberately omitted; the
// workloads here are insert-mostly, matching the paper's streams.)
func (t *Tree) Delete(key, val []byte) bool {
	// Duplicates of key may span several leaves; start at the leftmost
	// leaf that can contain it and walk forward via sibling links.
	for leaf := t.leafFor(key); leaf != nil; leaf = leaf.next {
		i := lowerBound(leaf.entries, key)
		for ; i < len(leaf.entries); i++ {
			e := leaf.entries[i]
			if !bytes.Equal(e.key, key) {
				return false
			}
			if val == nil || bytes.Equal(e.val, val) {
				leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
				t.size--
				return true
			}
		}
	}
	return false
}

// leafFor descends to the leftmost leaf that can contain key.
func (t *Tree) leafFor(key []byte) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[lowerBound(n.entries, key)]
	}
	return n
}

// Ascend visits entries with key >= start in key order (and insertion order
// within a key), calling fn until it returns false. A nil start begins at
// the smallest key.
func (t *Tree) Ascend(start []byte, fn func(key, val []byte) bool) {
	var leaf *node
	if start == nil {
		leaf = t.root
		for !leaf.leaf() {
			leaf = leaf.children[0]
		}
	} else {
		leaf = t.leafFor(start)
	}
	i := 0
	if start != nil {
		i = lowerBound(leaf.entries, start)
	}
	for leaf != nil {
		for ; i < len(leaf.entries); i++ {
			if !fn(leaf.entries[i].key, leaf.entries[i].val) {
				return
			}
		}
		leaf = leaf.next
		i = 0
	}
}

// Scan visits every entry in key order.
func (t *Tree) Scan(fn func(key, val []byte) bool) { t.Ascend(nil, fn) }

// Entry is one stored (key, value) pair.
type Entry struct {
	Key, Val []byte
}

// Entries returns every entry in key order in one slice of exactly Len
// entries. The keys and values are the tree's own slices, not copies: the
// tree never writes them after Insert, so they stay valid after the entry
// is deleted or the tree changes.
func (t *Tree) Entries() []Entry {
	out := make([]Entry, 0, t.size)
	t.Scan(func(k, v []byte) bool {
		out = append(out, Entry{Key: k, Val: v})
		return true
	})
	return out
}

// Height returns the tree height (a single leaf has height 1).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// Validate checks structural invariants: key ordering within and across
// leaves, separator correctness, uniform leaf depth and sibling-link
// completeness. It returns the first violation found, or nil. Used by the
// property tests.
func (t *Tree) Validate() error {
	depth := -1
	var prevKey []byte
	count := 0
	var walk func(n *node, d int, lo, hi []byte) error
	walk = func(n *node, d int, lo, hi []byte) error {
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree: leaves at depths %d and %d", depth, d)
			}
			for _, e := range n.entries {
				if prevKey != nil && bytes.Compare(prevKey, e.key) > 0 {
					return fmt.Errorf("btree: keys out of order: %x then %x", prevKey, e.key)
				}
				if lo != nil && bytes.Compare(e.key, lo) < 0 {
					return fmt.Errorf("btree: key %x below separator %x", e.key, lo)
				}
				if hi != nil && bytes.Compare(e.key, hi) > 0 {
					return fmt.Errorf("btree: key %x above separator %x", e.key, hi)
				}
				prevKey = e.key
				count++
			}
			return nil
		}
		if len(n.children) != len(n.entries)+1 {
			return fmt.Errorf("btree: interior node has %d children for %d separators", len(n.children), len(n.entries))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.entries[i-1].key
			}
			if i < len(n.entries) {
				chi = n.entries[i].key
			}
			if err := walk(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	// Sibling links must visit exactly the same entries.
	linked := 0
	t.Scan(func(k, v []byte) bool { linked++; return true })
	if linked != count {
		return fmt.Errorf("btree: sibling links reach %d entries, tree has %d", linked, count)
	}
	return nil
}

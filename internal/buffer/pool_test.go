package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func key(frag FragID, page uint64) PageKey {
	return PageKey{Frag: frag, NS: NSRow, Page: page}
}

func TestHitMissEvict(t *testing.T) {
	p := New(2)
	if p.Touch(key(1, 1)) {
		t.Error("first access must miss")
	}
	if !p.Touch(key(1, 1)) {
		t.Error("second access must hit")
	}
	p.Touch(key(1, 2))
	p.Touch(key(1, 3)) // evicts page 1 (LRU)
	if p.Touch(key(1, 1)) {
		t.Error("evicted page must miss")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 4 || s.Evictions != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.PhysicalIOs() != 4 {
		t.Errorf("physical = %d", s.PhysicalIOs())
	}
}

func TestLRUOrderOnHit(t *testing.T) {
	p := New(2)
	p.Touch(key(1, 1))
	p.Touch(key(1, 2))
	p.Touch(key(1, 1)) // 1 becomes MRU
	p.Touch(key(1, 3)) // evicts 2
	if !p.Touch(key(1, 1)) {
		t.Error("page 1 should have survived")
	}
	if p.Touch(key(1, 2)) {
		t.Error("page 2 should have been evicted")
	}
}

func TestNamespaceAndFragDistinguish(t *testing.T) {
	p := New(10)
	p.Touch(PageKey{Frag: 1, NS: NSRow, Page: 1})
	if p.Touch(PageKey{Frag: 1, NS: NSKey, Page: 1}) {
		t.Error("different namespace must be a different page")
	}
	if p.Touch(PageKey{Frag: 2, NS: NSRow, Page: 1}) {
		t.Error("different fragment must be a different page")
	}
}

func TestInvalidate(t *testing.T) {
	p := New(10)
	p.Touch(key(1, 1))
	p.Touch(key(2, 1))
	p.Invalidate(1)
	if p.Resident() != 1 {
		t.Errorf("resident = %d", p.Resident())
	}
	if p.Touch(key(1, 1)) {
		t.Error("invalidated page must miss")
	}
	if !p.Touch(key(2, 1)) {
		t.Error("other fragment must stay cached")
	}
}

func TestNilPool(t *testing.T) {
	var p *Pool
	if p.Touch(key(1, 1)) {
		t.Error("nil pool never hits")
	}
	if p.Resident() != 0 || p.Stats() != (Stats{}) {
		t.Error("nil pool reports zero state")
	}
	p.Invalidate(1)
	p.ResetStats()
	if New(0) != nil {
		t.Error("zero capacity should return nil")
	}
}

func TestResetStatsKeepsCache(t *testing.T) {
	p := New(4)
	p.Touch(key(1, 1))
	p.ResetStats()
	if !p.Touch(key(1, 1)) {
		t.Error("cache must survive ResetStats")
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

// Property: resident never exceeds capacity, and hits+misses equals the
// number of touches.
func TestPoolInvariants(t *testing.T) {
	f := func(pages []uint8, cap8 uint8) bool {
		capacity := int(cap8%16) + 1
		p := New(capacity)
		for _, pg := range pages {
			p.Touch(key(3, uint64(pg%32)))
			if p.Resident() > capacity {
				return false
			}
		}
		s := p.Stats()
		return s.Hits+s.Misses == int64(len(pages))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPoolMatchesReferenceLRU: over random touches and invalidations of a
// few fragments' pages in both namespaces, the pool reports the hits,
// misses and evictions of a plain list-scanning LRU.
func TestPoolMatchesReferenceLRU(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		p := New(capacity)
		var ref []PageKey // most recent first
		var want Stats
		for step := 0; step < 300; step++ {
			frag := FragID(rng.Intn(3))
			if rng.Intn(20) == 0 {
				p.Invalidate(frag)
				kept := ref[:0]
				for _, k := range ref {
					if k.Frag != frag {
						kept = append(kept, k)
					}
				}
				ref = kept
				continue
			}
			k := PageKey{Frag: frag, NS: uint8(rng.Intn(2)), Page: uint64(rng.Intn(6))}
			hit := false
			for i, r := range ref {
				if r == k {
					hit = true
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			if hit {
				want.Hits++
			} else {
				want.Misses++
				if len(ref) >= capacity {
					ref = ref[:len(ref)-1]
					want.Evictions++
				}
			}
			ref = append([]PageKey{k}, ref...)
			if got := p.Touch(k); got != hit {
				t.Fatalf("seed %d step %d: Touch(%v) = %v, reference %v", seed, step, k, got, hit)
			}
		}
		if p.Stats() != want || p.Resident() != len(ref) {
			t.Fatalf("seed %d: %+v with %d resident, reference %+v with %d", seed, p.Stats(), p.Resident(), want, len(ref))
		}
	}
}

// Package cost implements the paper's analytical model (§3.1–§3.2): total
// workload and response time of the naive, auxiliary-relation and
// global-index maintenance methods. One pricer (step.go) prices every
// delta-join step by how it ships its tuples; the two-relation model of
// Figures 7–12 is its one-step specialization, with sort-merge as the only
// closed-form alternative. The figure generators in series.go reproduce
// Figures 7–12, and Advise implements the cost-based method chooser the
// paper's conclusion proposes.
//
// Unit costs follow §3.1: SEARCH = 1 I/O, FETCH = 1 I/O, INSERT = 2 I/Os;
// SEND is excluded from I/O totals ("the time spent on SEND is much
// smaller than the time spent on SEARCH, FETCH, and INSERT").
package cost

import (
	"joinview/internal/catalog"
	"joinview/internal/plan"
)

// I/O unit costs (§3.1).
const (
	IOSearch = 1
	IOFetch  = 1
	IOInsert = 2
)

// Model carries the parameters of the two-relation analysis: a join view
// JV = A ⋈ B partitioned on an attribute of A, with tuples inserted into A.
// The matching B tuples reside at K = min(N, L) nodes (§3.2).
type Model struct {
	// L is the number of data server nodes.
	L int
	// N is the number of join tuples generated per inserted tuple (the
	// fan-out of the join into B).
	N int
	// BPages is the size of base relation B in pages (total; each node
	// holds BPages/L under the uniform-distribution assumption 2).
	BPages int
	// MemPages is the sort memory M in pages.
	MemPages int
}

// BiPages is the per-node share of B in pages (assumption 2).
func (m Model) BiPages() int { return ceilDiv(m.BPages, m.L) }

// variant is the method variant as the pricer sees it: one delta-join step
// into B, plus the count of A's own auxiliary structures it maintains (A's
// AR or GI on the join attribute; none for naive).
func (m Model) variant(mv Method) (Step, int) {
	n := float64(m.N)
	switch mv {
	case MethodAuxRel:
		return Step{Via: plan.ViaRoute, Fanout: n, Clustered: true}, 1
	case MethodNaiveNonClustered:
		return Step{Via: plan.ViaBroadcast, Fanout: n}, 0
	case MethodNaiveClustered:
		return Step{Via: plan.ViaBroadcast, Fanout: n, Clustered: true}, 0
	case MethodGINonClustered:
		return Step{Via: plan.ViaGlobalIndex, Fanout: n}, 1
	default:
		return Step{Via: plan.ViaGlobalIndex, Fanout: n, Clustered: true}, 1
	}
}

// TW returns the model's total workload per inserted tuple for the variant
// (§3.1.1): AR = 3, naive = L + N (non-clustered) or L, GI = 3 + N
// (non-clustered) or 3 + K (distributed clustered).
func (m Model) TW(mv Method) float64 {
	s, n := m.variant(mv)
	tw, _ := s.Price(m.L, 1)
	up, _ := Upkeep(m.L, 1, n)
	return tw + up
}

// Algo selects the join algorithm for the response-time model.
type Algo uint8

// Join algorithm choices for the model.
const (
	// AlgoIndex forces index nested loops.
	AlgoIndex Algo = iota
	// AlgoSortMerge forces the sort-merge algorithm.
	AlgoSortMerge
	// AlgoBest picks the cheaper of the two per method ("the algorithm
	// of choice", Figures 11–12).
	AlgoBest
)

// Resp returns the model's response time (§3.2: maximum per-node I/Os) for
// one transaction inserting a tuples, under the given algorithm. Index
// nested loops is the pricer's one-step chain; sort-merge scans B_i when
// the probed side is clustered on the join attribute and sorts it
// otherwise. Both add the upkeep of A's own structures.
func (m Model) Resp(mv Method, a int, algo Algo) float64 {
	s, n := m.variant(mv)
	_, inl := s.Price(m.L, float64(a))
	_, up := Upkeep(m.L, a, n)
	bi := m.BiPages()
	sm := float64(bi)
	if !s.Clustered {
		sm = float64(bi * ceilLog(m.MemPages, bi))
	}
	return pick(algo, inl+up, sm+up)
}

// Advise picks the cheapest maintenance method for a transaction of A
// inserted tuples, given which physical designs are in play:
// naiveClustered says base relation B carries a local clustered index on
// the join attribute, giDistClustered says the global index would be
// distributed clustered. This is the cost-based chooser the conclusion
// sketches ("our analytical model could form the basis for a cost model
// that would enable a system to choose the best approach automatically").
func (m Model) Advise(a int, naiveClustered, giDistClustered bool) catalog.Strategy {
	naiveMV, giMV := MethodNaiveNonClustered, MethodGINonClustered
	if naiveClustered {
		naiveMV = MethodNaiveClustered
	}
	if giDistClustered {
		giMV = MethodGIClustered
	}
	naive := m.Resp(naiveMV, a, AlgoBest)
	aux := m.Resp(MethodAuxRel, a, AlgoBest)
	gi := m.Resp(giMV, a, AlgoBest)
	// Deterministic preference on ties: AR (cheapest storage-independent
	// work) > GI > naive matches the paper's small-update ordering.
	best, strat := aux, catalog.StrategyAuxRel
	if gi < best {
		best, strat = gi, catalog.StrategyGlobalIndex
	}
	if naive < best {
		strat = catalog.StrategyNaive
	}
	return strat
}

func pick(algo Algo, inl, sm float64) float64 {
	switch algo {
	case AlgoIndex:
		return inl
	case AlgoSortMerge:
		return sm
	default:
		return min(inl, sm)
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// ceilLog returns ceil(log_base(pages)), minimum 1 for non-empty input —
// the pass count of external sort in the model.
func ceilLog(base, pages int) int {
	if pages <= 0 {
		return 0
	}
	if base < 2 {
		base = 2
	}
	passes := 1
	for span := base; span < pages; span *= base {
		passes++
	}
	return passes
}

package cost

import "fmt"

// Series generators for the paper's Figures 7–12. Each returns the X axis
// and one labelled Y series per method variant, in the order the paper's
// legends list them:
//
//	auxiliary relation,
//	naive with non-clustered index,
//	naive with clustered index,
//	global index (distributed non-clustered),
//	global index (distributed clustered).

// MethodSeries is one curve.
type MethodSeries struct {
	Label string
	Y     []float64
}

// Series is one figure: a shared X axis and the per-method curves.
type Series struct {
	Title string
	XName string
	X     []int
	Lines []MethodSeries
}

// Method indexes the five method variants of the paper's legends.
type Method int

// Method variants, in legend order.
const (
	MethodAuxRel Method = iota
	MethodNaiveNonClustered
	MethodNaiveClustered
	MethodGINonClustered
	MethodGIClustered
	numMethods
)

// Label returns the legend text of the method variant.
func (mv Method) Label() string {
	switch mv {
	case MethodAuxRel:
		return "auxiliary relation"
	case MethodNaiveNonClustered:
		return "naive (non-clustered index)"
	case MethodNaiveClustered:
		return "naive (clustered index)"
	case MethodGINonClustered:
		return "global index (dist non-clustered)"
	case MethodGIClustered:
		return "global index (dist clustered)"
	default:
		return "unknown"
	}
}

// perMethod evaluates f for the five method variants at every x.
func perMethod(title, xname string, xs []int, f func(x int, mv Method) float64) Series {
	s := Series{Title: title, XName: xname, X: xs}
	for mv := Method(0); mv < numMethods; mv++ {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = f(x, mv)
		}
		s.Lines = append(s.Lines, MethodSeries{Label: mv.Label(), Y: ys})
	}
	return s
}

// Fig7 is total workload per single-tuple insert vs the number of data
// server nodes (paper Figure 7; N fixed).
func Fig7(ls []int, n, bPages, memPages int) Series {
	return perMethod("Fig 7: TW vs number of data server nodes", "L", ls, func(l int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.TW(mv)
	})
}

// Fig8 is total workload per single-tuple insert vs the join fan-out N
// (paper Figure 8; L fixed, the paper uses 32).
func Fig8(l int, ns []int, bPages, memPages int) Series {
	return perMethod("Fig 8: TW vs number of join tuples generated (N)", "N", ns, func(n int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.TW(mv)
	})
}

// Fig9 is the response time of one transaction of A inserted tuples vs
// node count under the index join algorithm (paper Figure 9, A=400).
func Fig9(ls []int, a, n, bPages, memPages int) Series {
	title := fmt.Sprintf("Fig 9: execution time of one transaction with %d tuples (index join)", a)
	return perMethod(title, "L", ls, func(l int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.Resp(mv, a, AlgoIndex)
	})
}

// Fig10 is the response time of one transaction of A inserted tuples vs
// node count under the sort-merge algorithm (paper Figure 10, A=6,500).
func Fig10(ls []int, a, n, bPages, memPages int) Series {
	title := fmt.Sprintf("Fig 10: execution time of one transaction with %d tuples (sort-merge join)", a)
	return perMethod(title, "L", ls, func(l int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.Resp(mv, a, AlgoSortMerge)
	})
}

// Fig11 is the response time vs number of inserted tuples at fixed L, with
// each method using its cheaper algorithm (paper Figure 11, L=128).
func Fig11(l int, as []int, n, bPages, memPages int) Series {
	title := fmt.Sprintf("Fig 11: execution time vs tuples inserted (L=%d)", l)
	return perMethod(title, "A", as, func(a int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.Resp(mv, a, AlgoBest)
	})
}

// Fig12 is Figure 11 zoomed into small transactions, exposing the
// step-wise ceil(A/L) behaviour (paper Figure 12).
func Fig12(l int, as []int, n, bPages, memPages int) Series {
	title := fmt.Sprintf("Fig 12: execution time vs tuples inserted, detail (L=%d)", l)
	return perMethod(title, "A", as, func(a int, mv Method) float64 {
		return Model{L: l, N: n, BPages: bPages, MemPages: memPages}.Resp(mv, a, AlgoBest)
	})
}

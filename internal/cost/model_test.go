package cost

import (
	"math"
	"testing"
	"testing/quick"

	"joinview/internal/catalog"
	"joinview/internal/plan"
)

// Paper parameters (§3.2): |B| = 6,400 pages, M = 10, N = 10, K = min(N,L).
func paperModel(l int) Model {
	return Model{L: l, N: 10, BPages: 6400, MemPages: 10}
}

func TestTWPaperConstants(t *testing.T) {
	// Figure 7's stated constants: "For the auxiliary relation method, TW
	// is a small constant 3. ... For the global index method, TW quickly
	// reaches a constant 13 (K becomes N when L becomes larger than N)".
	for _, l := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		m := paperModel(l)
		if got := m.TW(MethodAuxRel); got != 3 {
			t.Errorf("L=%d: AR TW = %g, want 3", l, got)
		}
		if got := m.TW(MethodGINonClustered); got != 13 {
			t.Errorf("L=%d: GI (non-clustered) TW = %g, want 13", l, got)
		}
		wantGIC := float64(3 + min(10, l))
		if got := m.TW(MethodGIClustered); got != wantGIC {
			t.Errorf("L=%d: GI (clustered) TW = %g, want %g", l, got, wantGIC)
		}
		// Naive grows linearly with L.
		if got := m.TW(MethodNaiveClustered); got != float64(l) {
			t.Errorf("L=%d: naive (clustered) TW = %g, want %d", l, got, l)
		}
		if got := m.TW(MethodNaiveNonClustered); got != float64(l+10) {
			t.Errorf("L=%d: naive (non-clustered) TW = %g, want %d", l, got, l+10)
		}
	}
}

func TestTWOrderingProperties(t *testing.T) {
	// For any L ≥ 4 and N ≥ 1: AR ≤ GI ≤ naive(non-clustered) in TW,
	// the paper's "intermediate method" claim.
	f := func(l8, n8 uint8) bool {
		l := int(l8%125) + 4
		n := int(n8%100) + 1
		m := Model{L: l, N: n, BPages: 6400, MemPages: 10}
		ar := m.TW(MethodAuxRel)
		gic := m.TW(MethodGIClustered)
		ginc := m.TW(MethodGINonClustered)
		naive := m.TW(MethodNaiveNonClustered)
		return ar <= gic && gic <= ginc && ginc <= naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// K, the owner count of a distributed clustered GI fetch, is min(N, L):
// the pricer takes it from the step's fan-out and the node count.
func TestKDefaultsToMinNL(t *testing.T) {
	if got := (Model{L: 4, N: 10}).TW(MethodGIClustered); got != 3+4 {
		t.Errorf("L=4 N=10: GI clustered TW = %g, want 3+K = 7", got)
	}
	if got := (Model{L: 32, N: 10}).TW(MethodGIClustered); got != 3+10 {
		t.Errorf("L=32 N=10: GI clustered TW = %g, want 3+K = 13", got)
	}
}

// The two-relation model is the pricer's one-step chain plus upkeep, and
// both equal the paper's closed forms exactly — including the ⌈·/L⌉
// rounding that produces Figure 12's steps.
func TestModelIsOneStepChainPlusUpkeep(t *testing.T) {
	cd := ceilDiv
	for _, l := range []int{1, 2, 3, 8, 32, 128} {
		for _, n := range []int{1, 10, 64} {
			m := Model{L: l, N: n, BPages: 6400, MemPages: 10}
			k := min(n, l)
			for _, a := range []int{1, 127, 128, 129, 400, 6500} {
				ai := cd(a, l)
				for _, c := range []struct {
					mv       Method
					via      plan.Via
					upkeep   int
					tw, resp int // §3.1.1 per-tuple TW, §3.2 INL response
				}{
					{MethodAuxRel, plan.ViaRoute, 1, 3, 3 * ai},
					{MethodNaiveNonClustered, plan.ViaBroadcast, 0, l + n, a + cd(a*n, l)},
					{MethodNaiveClustered, plan.ViaBroadcast, 0, l, a},
					{MethodGINonClustered, plan.ViaGlobalIndex, 1, 3 + n, 3*ai + cd(a*n, l)},
					{MethodGIClustered, plan.ViaGlobalIndex, 1, 3 + k, 3*ai + cd(a*k, l)},
				} {
					clustered := c.mv == MethodAuxRel || c.mv == MethodNaiveClustered || c.mv == MethodGIClustered
					step := []Step{{Via: c.via, Fanout: float64(n), Clustered: clustered}}
					chainTW, _ := Chain(l, 1, step)
					upTW, _ := Upkeep(l, 1, c.upkeep)
					_, chainResp := Chain(l, a, step)
					_, upResp := Upkeep(l, a, c.upkeep)
					if got := m.TW(c.mv); got != float64(c.tw) || chainTW+upTW != float64(c.tw) {
						t.Errorf("L=%d N=%d %s: TW model %g, pricer %g, closed form %d",
							l, n, c.mv.Label(), got, chainTW+upTW, c.tw)
					}
					if got := m.Resp(c.mv, a, AlgoIndex); got != float64(c.resp) || chainResp+upResp != float64(c.resp) {
						t.Errorf("L=%d N=%d A=%d %s: INL response model %g, pricer %g, closed form %d",
							l, n, a, c.mv.Label(), got, chainResp+upResp, c.resp)
					}
				}
			}
		}
	}
}

func TestRespAuxRelFormula(t *testing.T) {
	// §3.3/Fig 9: "The execution time of the auxiliary relation method
	// (3·A/L) decreases rapidly with more data server nodes."
	m := paperModel(8)
	if got := m.Resp(MethodAuxRel, 400, AlgoIndex); got != 3*50 {
		t.Errorf("AR response (400, L=8, index) = %g, want 150", got)
	}
	// Step-wise ceiling: 401 tuples on 8 nodes -> ceil = 51.
	if got := m.Resp(MethodAuxRel, 401, AlgoIndex); got != 3*51 {
		t.Errorf("AR response (401) = %g, want 153", got)
	}
}

func TestRespNaiveFormula(t *testing.T) {
	m := paperModel(8)
	// Clustered: A searches at every node -> constant A.
	if got := m.Resp(MethodNaiveClustered, 400, AlgoIndex); got != 400 {
		t.Errorf("naive clustered response = %g, want 400", got)
	}
	// Non-clustered: A + ceil(A*N/L) = 400 + 500.
	if got := m.Resp(MethodNaiveNonClustered, 400, AlgoIndex); got != 900 {
		t.Errorf("naive non-clustered response = %g, want 900", got)
	}
}

func TestRespGlobalIndexFormula(t *testing.T) {
	m := paperModel(8) // K = min(10, 8) = 8
	// (3+K)A/L form: 3*ceil(400/8) + ceil(400*8/8) = 150 + 400 = 550.
	if got := m.Resp(MethodGIClustered, 400, AlgoIndex); got != 550 {
		t.Errorf("GI clustered response = %g, want 550", got)
	}
	// (3+N)A/L form: 150 + ceil(400*10/8) = 150 + 500 = 650.
	if got := m.Resp(MethodGINonClustered, 400, AlgoIndex); got != 650 {
		t.Errorf("GI non-clustered response = %g, want 650", got)
	}
}

func TestSortMergeCrossover(t *testing.T) {
	// Figure 10's headline: with A=6,500 > |B| pages, the naive method
	// with clustered index beats the auxiliary relation method.
	for _, l := range []int{2, 8, 32, 128} {
		m := paperModel(l)
		naiveC := m.Resp(MethodNaiveClustered, 6500, AlgoSortMerge)
		ar := m.Resp(MethodAuxRel, 6500, AlgoSortMerge)
		if naiveC >= ar {
			t.Errorf("L=%d: naive-clustered (%g) should beat AR (%g) at A=6500", l, naiveC, ar)
		}
		gi := m.Resp(MethodGIClustered, 6500, AlgoSortMerge)
		if naiveC >= gi {
			t.Errorf("L=%d: naive-clustered (%g) should beat GI (%g) at A=6500", l, naiveC, gi)
		}
	}
	// And for small updates the ordering flips (Fig 9).
	for _, l := range []int{8, 32, 128} {
		m := paperModel(l)
		if m.Resp(MethodAuxRel, 400, AlgoBest) >= m.Resp(MethodNaiveClustered, 400, AlgoBest) {
			t.Errorf("L=%d: AR should beat naive for small updates", l)
		}
	}
}

func TestAlgoBestPicksMin(t *testing.T) {
	m := paperModel(128)
	for _, a := range []int{1, 100, 1000, 6500, 20000} {
		for _, mv := range []Method{MethodAuxRel, MethodNaiveNonClustered, MethodNaiveClustered, MethodGINonClustered, MethodGIClustered} {
			best := m.Resp(mv, a, AlgoBest)
			inl := m.Resp(mv, a, AlgoIndex)
			sm := m.Resp(mv, a, AlgoSortMerge)
			if best != math.Min(inl, sm) {
				t.Errorf("A=%d %s: best=%g, inl=%g, sm=%g", a, mv.Label(), best, inl, sm)
			}
		}
	}
}

// Fig 11: each curve reaches the sort-merge plateau once A is large; the
// naive methods plateau at pure scan/sort cost, AR/GI keep only the slowly
// growing structure-update term.
func TestResponsePlateau(t *testing.T) {
	m := paperModel(128)
	naive := m.Resp(MethodNaiveClustered, 1000000, AlgoBest)
	if got := m.Resp(MethodNaiveClustered, 5000000, AlgoBest); got != naive {
		t.Errorf("naive clustered should plateau at Bi: %g vs %g", naive, got)
	}
	if got := m.Resp(MethodNaiveClustered, 1000000, AlgoBest); got != float64(m.BiPages()) {
		t.Errorf("naive clustered plateau = %g, want Bi = %d", got, m.BiPages())
	}
	// AR at huge A: Bi + 2*ceil(A/L), strictly above naive clustered.
	ar := m.Resp(MethodAuxRel, 1000000, AlgoBest)
	want := float64(m.BiPages()) + 2*float64((1000000+127)/128)
	if ar != want {
		t.Errorf("AR sort-merge plateau = %g, want %g", ar, want)
	}
}

func TestAdvise(t *testing.T) {
	// Small update, clustered naive index available: AR still wins.
	m := paperModel(8)
	if got := m.Advise(128, true, true); got != catalog.StrategyAuxRel {
		t.Errorf("Advise(small) = %v, want auxrel", got)
	}
	// Huge update: naive with clustered index wins (Fig 10).
	if got := m.Advise(6500, true, true); got != catalog.StrategyNaive {
		t.Errorf("Advise(huge, clustered) = %v, want naive", got)
	}
	// Huge update with only a non-clustered naive path: sorting B_i
	// (B_i·log_M B_i = 2400) still undercuts AR's scan + per-tuple AR
	// updates (B_i + 2·ceil(A/L) = 2426) — "as the number of inserted
	// tuples approaches the number of pages of B, the auxiliary relation
	// method is indeed worse than the naive method".
	if got := m.Advise(6500, false, false); got != catalog.StrategyNaive {
		t.Errorf("Advise(huge, non-clustered) = %v, want naive", got)
	}
	// At moderate size the AR update term is negligible and AR wins again.
	if got := m.Advise(1000, false, false); got != catalog.StrategyAuxRel {
		t.Errorf("Advise(moderate) = %v, want auxrel", got)
	}
}

func TestCeilHelpers(t *testing.T) {
	if ceilDiv(10, 4) != 3 || ceilDiv(8, 4) != 2 || ceilDiv(0, 4) != 0 {
		t.Error("ceilDiv wrong")
	}
	if ceilDiv(5, 0) != 5 {
		t.Error("ceilDiv with zero divisor should pass through")
	}
	if ceilF(10, 4) != 3 || ceilF(10, 0) != 10 {
		t.Error("ceilF wrong")
	}
}

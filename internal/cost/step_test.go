package cost

import (
	"testing"

	"joinview/internal/plan"
)

// Figure 13 setup: 128 tuples inserted into customer; each customer tuple
// matches 1 orders tuple, each orders tuple matches 40 lineitem tuples;
// customer is partitioned on custkey (no AR of its own). The naive method
// broadcasts into orders/lineitem's non-clustered secondary indexes; the AR
// method routes to orders_1/lineitem_1, clustered on the join attributes.

func naiveChain(fanouts ...float64) []Step {
	steps := make([]Step, len(fanouts))
	for i, f := range fanouts {
		steps[i] = Step{Via: plan.ViaBroadcast, Fanout: f}
	}
	return steps
}

func arChain(fanouts ...float64) []Step {
	steps := make([]Step, len(fanouts))
	for i, f := range fanouts {
		steps[i] = Step{Via: plan.ViaRoute, Fanout: f, Clustered: true}
	}
	return steps
}

func giChain(clustered bool, fanouts ...float64) []Step {
	steps := make([]Step, len(fanouts))
	for i, f := range fanouts {
		steps[i] = Step{Via: plan.ViaGlobalIndex, Fanout: f, Clustered: clustered}
	}
	return steps
}

func resp(l, a int, steps []Step) float64 {
	_, r := Chain(l, a, steps)
	return r
}

func tw(l, a int, steps []Step) float64 {
	t, _ := Chain(l, a, steps)
	return t
}

func TestFig13PredictedShapes(t *testing.T) {
	const a = 128
	for _, l := range []int{2, 4, 8} {
		jv1Naive := resp(l, a, naiveChain(1))
		jv1AR := resp(l, a, arChain(1))
		jv2Naive := resp(l, a, naiveChain(1, 40))
		jv2AR := resp(l, a, arChain(1, 40))

		// AR beats naive on both views at every node count.
		if jv1AR >= jv1Naive {
			t.Errorf("L=%d: JV1 AR (%g) should beat naive (%g)", l, jv1AR, jv1Naive)
		}
		if jv2AR >= jv2Naive {
			t.Errorf("L=%d: JV2 AR (%g) should beat naive (%g)", l, jv2AR, jv2Naive)
		}
		// The 3-way view costs more than the 2-way for both methods.
		if jv2Naive <= jv1Naive || jv2AR < jv1AR {
			t.Errorf("L=%d: JV2 should cost at least JV1", l)
		}
	}
	// "The speedup gained by the AR method over the naive method increases
	// with the number of data server nodes."
	speedup := func(l int) float64 {
		return resp(l, a, naiveChain(1, 40)) / resp(l, a, arChain(1, 40))
	}
	if !(speedup(2) < speedup(4) && speedup(4) < speedup(8)) {
		t.Errorf("speedups = %g, %g, %g; want increasing", speedup(2), speedup(4), speedup(8))
	}
}

func TestFig13ExactValues(t *testing.T) {
	// Closed forms: naive JV1 = A + A/L; AR JV1 = ceil(A/L).
	const a = 128
	if got := resp(4, a, naiveChain(1)); got != 128+32 {
		t.Errorf("naive JV1 at L=4 = %g, want 160", got)
	}
	if got := resp(4, a, arChain(1)); got != 32 {
		t.Errorf("AR JV1 at L=4 = %g, want 32", got)
	}
	// naive JV2 = A + A/L + A + 40A/L = 2A + 41A/L.
	if got := resp(4, a, naiveChain(1, 40)); got != 2*128+41*32 {
		t.Errorf("naive JV2 at L=4 = %g, want %d", got, 2*128+41*32)
	}
	// AR JV2 = 2*ceil(A/L).
	if got := resp(4, a, arChain(1, 40)); got != 64 {
		t.Errorf("AR JV2 at L=4 = %g, want 64", got)
	}
}

func TestUpkeepResponseTerm(t *testing.T) {
	// An updated table with its own structures pays 2 I/Os per structure
	// per routed tuple: ceil(A/L) tuples on the busiest node.
	upTW, upResp := Upkeep(4, 128, 2)
	if upResp != 2*32*2 {
		t.Errorf("upkeep response = %g, want 128", upResp)
	}
	if upTW != 2*128*2 {
		t.Errorf("upkeep TW = %g, want 512", upTW)
	}
	if _, upResp := Upkeep(4, 129, 1); upResp != 2*33 {
		t.Errorf("upkeep response at A=129 = %g, want 66 (ceil)", upResp)
	}
}

func TestGlobalIndexStepResponse(t *testing.T) {
	const a = 128
	l := 4
	// Non-clustered, fanout 40 step plus one GI of its own: searches
	// ceil(in/L), fetches ceil(in*40/L), upkeep 2*ceil(in/L).
	_, up := Upkeep(l, a, 1)
	got := resp(l, a, giChain(false, 40)) + up
	want := float64(2*32) + 32 + float64(128*40)/4
	if got != want {
		t.Errorf("GI response = %g, want %g", got, want)
	}
	// Clustered caps per-tuple owner count at L.
	gotC := resp(l, a, giChain(true, 40))
	wantC := float64(32) + float64(128*4)/4
	if gotC != wantC {
		t.Errorf("GI clustered response = %g, want %g", gotC, wantC)
	}
	// GI sits between AR and naive.
	ar := resp(l, a, arChain(1, 40))
	naive := resp(l, a, naiveChain(1, 40))
	gi := resp(l, a, giChain(false, 1, 40))
	if !(ar < gi && gi < naive) {
		t.Errorf("ordering AR(%g) < GI(%g) < naive(%g) violated", ar, gi, naive)
	}
}

// Chains reduce to the §3.1 per-tuple constants for the two-relation case —
// AR = 3, naive = L + N (non-clustered) or L (clustered), GI = 3 + N
// (non-clustered) or 3 + K (clustered) — and keep the TW ordering for
// multi-step transactions.
func TestTotalWorkloadMatchesPerTupleModel(t *testing.T) {
	for _, l := range []int{2, 8, 32} {
		for _, n := range []int{1, 10, 64} {
			f := float64(n)
			up, _ := Upkeep(l, 1, 1)
			for _, c := range []struct {
				name string
				got  float64
				want int
			}{
				{"naive", tw(l, 1, naiveChain(f)), l + n},
				{"naive clustered", tw(l, 1, []Step{{Via: plan.ViaBroadcast, Fanout: f, Clustered: true}}), l},
				{"auxrel", tw(l, 1, arChain(f)) + up, 3},
				{"globalindex", tw(l, 1, giChain(false, f)) + up, 3 + n},
				{"globalindex clustered", tw(l, 1, giChain(true, f)) + up, 3 + min(n, l)},
			} {
				if c.got != float64(c.want) {
					t.Errorf("L=%d N=%d: %s TW = %g, want %d", l, n, c.name, c.got, c.want)
				}
			}
		}
	}
	up, _ := Upkeep(8, 100, 1)
	ar := tw(8, 100, arChain(4, 3)) + up
	gi := tw(8, 100, giChain(false, 4, 3)) + up
	naive := tw(8, 100, naiveChain(4, 3))
	if !(ar < gi && gi < naive) {
		t.Errorf("TW ordering violated: AR=%g GI=%g naive=%g", ar, gi, naive)
	}
}

// Shared pricing charges each distinct DAG node (step Key) once, and
// upkeep once, however many chains reference them.
func TestSharedChargesEachKeyOnce(t *testing.T) {
	a := Step{Via: plan.ViaRoute, Fanout: 2, Clustered: true, Key: "r>s"}
	b := Step{Via: plan.ViaBroadcast, Fanout: 1, Clustered: true, Key: "r>s>t"}
	anon := Step{Via: plan.ViaRoute, Fanout: 1, Clustered: true}
	chains := [][]Step{{a, b}, {a, b}, {a}, {anon}, {anon}}
	shared, independent := Shared(4, 10, 1, chains)
	// upkeep 1·10·2 = 20; a: 10; b: 20 incoming × 4 nodes = 80; anon: 10
	// per chain (no key, never shared).
	if want := 20.0 + 10 + 80 + 10 + 10; shared != want {
		t.Errorf("shared = %g, want %g", shared, want)
	}
	if want := 20.0 + 2*(10+80) + 10 + 10 + 10; independent != want {
		t.Errorf("independent = %g, want %g", independent, want)
	}
}

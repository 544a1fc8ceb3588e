package cost

import (
	"math"

	"joinview/internal/plan"
)

// The one pricer. Every number the model produces — the per-statement
// chooser's TW, the shared-DAG and advisor pricing, Figures 7–13 — is a sum
// of Step.Price over delta-join steps plus Upkeep of the updated table's
// own auxiliary structures. A step is priced by how it reaches the rows it
// probes (its plan.Via), not by which maintenance method planned it: a naive
// plan's step into a relation partitioned on the join attribute is a route
// (paper case 1), priced as one.
//
// Rounding (§3.2, the steps of Figure 12): work spread evenly over the l
// nodes costs ⌈c/l⌉ on the busiest node; TW is never rounded.

// Step is one priced delta-join step.
type Step struct {
	// Via is how the step ships its incoming tuples.
	Via plan.Via
	// Fanout is the expected matches per incoming tuple.
	Fanout float64
	// Clustered says the probed fragment (base, AR, or the owners behind a
	// distributed clustered global index) is clustered on the join
	// attribute, so matches are fetched free with the searched page.
	Clustered bool
	// Key is the step's structural chain identity (plan.Step.ChainKey):
	// steps with equal non-empty keys are one shared DAG node, charged once.
	Key string
}

// Price returns the step's total workload (I/Os summed over the l nodes)
// and index-nested-loop response time (I/Os of the busiest node) for `in`
// incoming tuples.
func (s Step) Price(l int, in float64) (tw, resp float64) {
	var fetches float64
	switch {
	case s.Via == plan.ViaGlobalIndex && s.Clustered:
		// One page per owning node: K = min(fan-out, L) per tuple.
		fetches = in * min(s.Fanout, float64(l))
	case !s.Clustered:
		fetches = in * s.Fanout
	}
	// Routed and global-index searches run once per tuple, spread over the
	// nodes; a broadcast searches every tuple on every node.
	searches, perNode := in, ceilF(in, l)
	if s.Via == plan.ViaBroadcast {
		searches, perNode = in*float64(l), in
	}
	return searches*IOSearch + fetches*IOFetch, perNode*IOSearch + ceilF(fetches, l)*IOFetch
}

// Chain prices steps in order for a delta of a tuples on l nodes, threading
// the intermediate size through the fan-outs.
func Chain(l, a int, steps []Step) (tw, resp float64) {
	in := float64(a)
	for _, s := range steps {
		t, r := s.Price(l, in)
		tw, resp = tw+t, resp+r
		in *= s.Fanout
	}
	return tw, resp
}

// Upkeep prices the updated table's own n auxiliary structures (ARs and
// GIs) for a delta of a tuples: one INSERT per structure per tuple, each
// tuple routed to one of the l nodes.
func Upkeep(l, a, n int) (tw, resp float64) {
	return float64(n*a) * IOInsert, float64(n) * ceilF(float64(a), l) * IOInsert
}

// Shared prices the chains of one delta of a tuples — one chain per
// dependent view — plus the upkeep of the updated table's n structures,
// which the pipeline performs once however many views depend on it. shared
// charges each distinct step Key once (the shared maintenance DAG, after
// Mistry et al.'s multi-query optimization); independent charges every
// chain in full.
func Shared(l, a, n int, chains [][]Step) (shared, independent float64) {
	shared, _ = Upkeep(l, a, n)
	independent = shared
	priced := map[string]bool{}
	for _, steps := range chains {
		in, chain := float64(a), 0.0
		for _, s := range steps {
			tw, _ := s.Price(l, in)
			chain += tw
			if !priced[s.Key] {
				shared += tw
				priced[s.Key] = s.Key != ""
			}
			in *= s.Fanout
		}
		independent += chain
	}
	return shared, independent
}

// ceilF is ⌈x/l⌉, the busiest node's share of x units spread over l nodes.
func ceilF(x float64, l int) float64 {
	if l <= 0 {
		return x
	}
	return math.Ceil(x / float64(l))
}

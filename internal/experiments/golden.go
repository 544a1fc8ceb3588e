package experiments

// GoldenCase is one measured experiment grid with a pinned, small axis set,
// used for trace-equivalence checking: the rendered grid must stay
// byte-identical across refactors of the write path and across transports.
// The checked-in traces live in testdata/seed and were generated from the
// original hand-rolled executor (go run ./internal/experiments/goldengen).
type GoldenCase struct {
	Name string
	Run  func() (Grid, error)
	// DirectOnly, when non-empty, says why the case cannot render
	// identically on the channel transport; it is pinned on Direct alone.
	DirectOnly string
}

// GoldenCases lists every measured experiment grid (the paper's fig7–fig14
// and Table 1, plus the repo's extensions) at the axes the seed traces were
// captured with. NetworkSensitivity is excluded: it reports wall-clock µs.
func GoldenCases() []GoldenCase {
	return []GoldenCase{
		{Name: "table1", Run: func() (Grid, error) { return Table1(400), nil }},
		{Name: "fig7", Run: func() (Grid, error) { return Fig7Measured([]int{1, 2, 8}) }},
		{Name: "fig8", Run: func() (Grid, error) { return Fig8Measured(8, []int{1, 8}) }},
		{Name: "fig9", Run: func() (Grid, error) { return Fig9Measured([]int{2, 8}) }},
		{Name: "fig10", Run: func() (Grid, error) { return Fig10Measured([]int{2, 4}) }},
		{Name: "fig11", Run: func() (Grid, error) { return Fig11Measured(8, []int{1, 100}) }},
		{Name: "fig12", Run: func() (Grid, error) { return Fig12Model(), nil }},
		{Name: "fig13", Run: func() (Grid, error) { return Fig13Predicted([]int{2, 4, 8}), nil }},
		{Name: "fig14", Run: func() (Grid, error) {
			rs, err := Fig14Measured([]int{2}, 400, 16)
			if err != nil {
				return Grid{}, err
			}
			return Fig14Grid(rs), nil
		}},
		{Name: "storage", Run: func() (Grid, error) { return StorageTradeoff(4, PaperN) }},
		{Name: "buffering", Run: func() (Grid, error) { return BufferingEffect(4, 500, 200) }},
		{Name: "skew", Run: func() (Grid, error) { return SkewSensitivity(4, 128, 1.5) }},
		{Name: "durability", Run: func() (Grid, error) { return Durability(4, 50, 64) }},
		{Name: "faults", Run: func() (Grid, error) { return FaultOverhead(4, 50, 0.02, 1) }},
		{Name: "parallel", Run: func() (Grid, error) { return SessionCost([]int{2, 8}, 4, 120, 8) }},
		{Name: "adaptive", Run: func() (Grid, error) { return AdaptiveCost(8, 200) }},
		{Name: "elastic", Run: func() (Grid, error) { return ElasticCopy(4, 300, 8) }},
		{Name: "async", Run: func() (Grid, error) { return AsyncCost(8, 256, []int{0, 8, 32, 128}) }},
		{Name: "replica", Run: func() (Grid, error) { return ReplicationCost(8, 64, []int{1, 2, 3}) }},
		{Name: "manyviews", Run: func() (Grid, error) { return ManyViewsCost(8, 16, []int{1, 10}) },
			DirectOnly: "per-stage page attribution (Metrics.Pipeline.Stages) needs exclusive ownership of the global meters, which only serial dispatch gives"},
		{Name: "hotpath", Run: func() (Grid, error) { return ReadModeCost(8, 40, 8) }},
	}
}

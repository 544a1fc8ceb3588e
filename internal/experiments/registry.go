package experiments

// Axes are the knobs an experiment grid is run at. Each experiment reads
// the fields its registry entry sets and ignores the rest.
type Axes struct {
	// Ls is the node-count axis; single-cluster experiments run at Ls[0].
	Ls []int
	// Xs is the experiment's own sweep: join fan-outs N (fig8), tuples per
	// transaction (fig11), view counts (manyviews), epoch sizes (async),
	// replication factors (replica).
	Xs []int
	// N is the transaction size or stream length in statements.
	N int
	// Scale is the divisor applied to Table 1's row counts.
	Scale int
	// Rate is the per-kind fault probability.
	Rate float64
}

// Experiment is one entry of the registry: everything cmd/jvbench,
// goldengen and TestTransportEquivalence know about an experiment.
type Experiment struct {
	Name string
	// Model evaluates the analytical model at the paper's parameters (nil
	// when the experiment has no closed form).
	Model func() Grid
	// Run produces the experiment's grid at the given axes — on the
	// simulator, except for table1 and fig13 which only need the axes. Nil
	// for model-only figures.
	Run func(Axes) (Grid, error)
	// Full are the axes jvbench runs (before -maxl, -scale, -a and -faults
	// override them); Golden the pinned small axes whose Direct and channel
	// renders must equal testdata/seed/<Name>.golden byte for byte.
	Full, Golden Axes
	// DirectOnly, when non-empty, says why the grid is pinned on the
	// Direct transport alone.
	DirectOnly string
}

// GoldenGrid renders the experiment at its golden axes (the model grid
// for a model-only figure).
func (e Experiment) GoldenGrid() (Grid, error) {
	if e.Run == nil {
		return e.Model(), nil
	}
	return e.Run(e.Golden)
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registry's experiment names in order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.Name
	}
	return out
}

// Registry is the one table of experiments: the paper's Table 1 and
// Figures 7–14, then the repo's extensions. Adding or removing an
// experiment is one entry here (plus its golden file).
var Registry = []Experiment{
	{Name: "table1",
		Run:  func(a Axes) (Grid, error) { return Table1(a.Scale), nil },
		Full: Axes{Scale: 100}, Golden: Axes{Scale: 400}},
	{Name: "fig7", Model: Fig7Model,
		Run:  func(a Axes) (Grid, error) { return Fig7Measured(a.Ls) },
		Full: Axes{Ls: DefaultLs}, Golden: Axes{Ls: []int{1, 2, 8}}},
	{Name: "fig8", Model: Fig8Model,
		Run:    func(a Axes) (Grid, error) { return Fig8Measured(a.Ls[0], a.Xs) },
		Full:   Axes{Ls: []int{32}, Xs: []int{1, 2, 4, 8, 16, 32, 64}},
		Golden: Axes{Ls: []int{8}, Xs: []int{1, 8}}},
	{Name: "fig9", Model: Fig9Model,
		Run:  func(a Axes) (Grid, error) { return Fig9Measured(a.Ls) },
		Full: Axes{Ls: DefaultLs}, Golden: Axes{Ls: []int{2, 8}}},
	{Name: "fig10", Model: Fig10Model,
		Run:  func(a Axes) (Grid, error) { return Fig10Measured(a.Ls) },
		Full: Axes{Ls: []int{2, 4, 8}}, Golden: Axes{Ls: []int{2, 4}}},
	{Name: "fig11", Model: Fig11Model,
		Run:    func(a Axes) (Grid, error) { return Fig11Measured(a.Ls[0], a.Xs) },
		Full:   Axes{Ls: []int{128}, Xs: []int{1, 10, 100, 400, 1000, 2000}},
		Golden: Axes{Ls: []int{8}, Xs: []int{1, 100}}},
	{Name: "fig12", Model: Fig12Model},
	{Name: "fig13",
		Run:  func(a Axes) (Grid, error) { return Fig13Predicted(a.Ls), nil },
		Full: Axes{Ls: []int{2, 4, 8}}, Golden: Axes{Ls: []int{2, 4, 8}}},
	{Name: "fig14",
		Run: func(a Axes) (Grid, error) {
			rs, err := Fig14Measured(a.Ls, a.Scale, a.N)
			return Fig14Grid(rs), err
		},
		Full:   Axes{Ls: []int{2, 4, 8}, Scale: 100, N: 128},
		Golden: Axes{Ls: []int{2}, Scale: 400, N: 16}},
	{Name: "storage",
		Run:  func(a Axes) (Grid, error) { return StorageTradeoff(a.Ls[0], PaperN) },
		Full: Axes{Ls: []int{8}}, Golden: Axes{Ls: []int{4}}},
	{Name: "buffering",
		Run:  func(a Axes) (Grid, error) { return BufferingEffect(a.Ls[0], a.N, 200) },
		Full: Axes{Ls: []int{8}, N: 2000}, Golden: Axes{Ls: []int{4}, N: 500}},
	{Name: "skew",
		Run:  func(a Axes) (Grid, error) { return SkewSensitivity(a.Ls[0], a.N, 1.5) },
		Full: Axes{Ls: []int{16}, N: 512}, Golden: Axes{Ls: []int{4}, N: 128}},
	{Name: "faults",
		Run:    func(a Axes) (Grid, error) { return FaultOverhead(a.Ls[0], a.N, a.Rate, 1) },
		Full:   Axes{Ls: []int{8}, N: 200, Rate: 0.02},
		Golden: Axes{Ls: []int{4}, N: 50, Rate: 0.02}},
	{Name: "durability",
		Run:  func(a Axes) (Grid, error) { return Durability(a.Ls[0], a.N, 64) },
		Full: Axes{Ls: []int{8}, N: 200}, Golden: Axes{Ls: []int{4}, N: 50}},
	{Name: "parallel",
		Run:  func(a Axes) (Grid, error) { return ConcurrentSessions(a.Ls, 4, a.N, 8) },
		Full: Axes{Ls: []int{2, 8, 32}, N: 120}, Golden: Axes{Ls: []int{2, 8}, N: 120}},
	{Name: "adaptive",
		Run:  func(a Axes) (Grid, error) { return AdaptiveStrategy(a.Ls[0], a.N) },
		Full: Axes{Ls: []int{8}, N: 200}, Golden: Axes{Ls: []int{8}, N: 200}},
	{Name: "elastic",
		Run:  func(a Axes) (Grid, error) { return Elastic(4, a.N, 8) },
		Full: Axes{N: 300}, Golden: Axes{N: 300}},
	{Name: "async",
		Run:    func(a Axes) (Grid, error) { return AsyncMaintenance(a.Ls[0], a.N, a.Xs) },
		Full:   Axes{Ls: []int{8}, N: 256, Xs: []int{0, 8, 32, 128}},
		Golden: Axes{Ls: []int{8}, N: 256, Xs: []int{0, 8, 32, 128}}},
	{Name: "replica",
		Run:    func(a Axes) (Grid, error) { return Replication(a.Ls[0], a.N, a.Xs) },
		Full:   Axes{Ls: []int{8}, N: 64, Xs: []int{1, 2, 3}},
		Golden: Axes{Ls: []int{8}, N: 64, Xs: []int{1, 2, 3}}},
	{Name: "manyviews",
		Run:        func(a Axes) (Grid, error) { return ManyViews(a.Ls[0], a.N, a.Xs) },
		Full:       Axes{Ls: []int{8}, N: 16, Xs: []int{1, 10, 25, 50, 100}},
		Golden:     Axes{Ls: []int{8}, N: 16, Xs: []int{1, 10}},
		DirectOnly: "per-stage page attribution (Metrics.Pipeline.Stages) needs exclusive ownership of the global meters, which only serial dispatch gives"},
	{Name: "hotpath",
		Run:  func(a Axes) (Grid, error) { return Hotpath(a.Ls[0], a.N, 8) },
		Full: Axes{Ls: []int{8}, N: 40}, Golden: Axes{Ls: []int{8}, N: 40}},
}

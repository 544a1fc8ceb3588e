// Package experiments regenerates every table and figure of the paper's
// evaluation — the analytical-model curves of Figures 7–12, the Figure 13
// predictions, and the measured counterparts run on the cluster simulator
// (including Figure 14's measured maintenance cost and Table 1's data
// set) — plus the repo's extension experiments, all in logical cost (page
// I/Os, messages). Registry (registry.go) lists them; cmd/jvbench prints
// them as the rows/series the paper plots and TestTransportEquivalence
// pins each one to a golden file on both transports.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/cost"
	"joinview/internal/fault"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/types"
	"joinview/internal/workload"
)

// Paper parameters (§3.2): |B| = 6,400 pages, M = 10 pages, N = 10,
// K = min(N, L). The measured runs scale |B| via PageRows=10 (6,400 rows =
// 640 pages by default) — shapes, not absolute numbers, are the target.
const (
	PaperBPages   = 6400
	PaperMemPages = 10
	PaperN        = 10
)

// DefaultLs is the node-count axis the paper sweeps.
var DefaultLs = []int{1, 2, 4, 8, 16, 32, 64, 128}

// ConfigHook, when non-nil, adjusts every cluster configuration an
// experiment builds, just before cluster.New. The transport-equivalence
// tests use it to rerun the whole suite on the channel transport with
// parallel dispatch and assert the meter traces match the Direct runs.
var ConfigHook func(*cluster.Config)

// newCluster builds an experiment cluster, applying ConfigHook.
func newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if ConfigHook != nil {
		ConfigHook(&cfg)
	}
	return cluster.New(cfg)
}

// Grid is a printable result table.
type Grid struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats the grid as aligned text.
func (g Grid) Render() string {
	var sb strings.Builder
	sb.WriteString(g.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(g.Header))
	for i, h := range g.Header {
		widths[i] = len(h)
	}
	for _, row := range g.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		sb.WriteByte('\n')
	}
	line(g.Header)
	for _, row := range g.Rows {
		line(row)
	}
	return sb.String()
}

// WriteCSV writes the grid as CSV (header row first; the title goes into a
// leading comment line) for external plotting.
func (g Grid) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", g.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(g.Header); err != nil {
		return err
	}
	for _, row := range g.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Slug derives a filesystem-friendly name from the grid title.
func (g Grid) Slug() string {
	var sb strings.Builder
	for _, r := range strings.ToLower(g.Title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			sb.WriteByte('-')
		} // anything else is dropped
		if sb.Len() > 48 {
			break
		}
	}
	return strings.Trim(sb.String(), "-")
}

// FromSeries converts a cost.Series into a grid (X column + one column per
// method).
func FromSeries(s cost.Series) Grid {
	g := Grid{Title: s.Title, Header: []string{s.XName}}
	for _, l := range s.Lines {
		g.Header = append(g.Header, l.Label)
	}
	for i, x := range s.X {
		row := []string{fmt.Sprintf("%d", x)}
		for _, l := range s.Lines {
			row = append(row, fmtF(l.Y[i]))
		}
		g.Rows = append(g.Rows, row)
	}
	return g
}

func fmtF(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// Table1 reports the test data set at a given scale divisor (1 = the
// paper's full 0.15M/1.5M/6M rows).
func Table1(scaleDiv int) Grid {
	if scaleDiv <= 0 {
		scaleDiv = 100
	}
	spec := workload.TPCR{Customers: 150000 / scaleDiv}.Defaulted()
	return Grid{
		Title:  fmt.Sprintf("Table 1: test data set (scale 1/%d of the paper's)", scaleDiv),
		Header: []string{"relation", "tuples", "paper tuples"},
		Rows: [][]string{
			{"customer", fmt.Sprintf("%d", spec.Customers), "0.15M"},
			{"orders", fmt.Sprintf("%d", spec.Orders()), "1.5M"},
			{"lineitem", fmt.Sprintf("%d", spec.Lineitems()), "6M"},
		},
	}
}

// Fig7Model, ..., Fig12Model evaluate the analytical model with the
// paper's parameters.

// Fig7Model is TW vs L (model).
func Fig7Model() Grid {
	return FromSeries(cost.Fig7(DefaultLs, PaperN, PaperBPages, PaperMemPages))
}

// Fig8Model is TW vs N at L=32 (model).
func Fig8Model() Grid {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128}
	return FromSeries(cost.Fig8(32, ns, PaperBPages, PaperMemPages))
}

// Fig9Model is the 400-tuple index-join transaction (model).
func Fig9Model() Grid {
	return FromSeries(cost.Fig9(DefaultLs, 400, PaperN, PaperBPages, PaperMemPages))
}

// Fig10Model is the 6,500-tuple sort-merge transaction (model).
func Fig10Model() Grid {
	return FromSeries(cost.Fig10(DefaultLs, 6500, PaperN, PaperBPages, PaperMemPages))
}

// Fig11Model is response time vs transaction size at L=128 (model).
func Fig11Model() Grid {
	as := []int{1, 10, 50, 100, 400, 1000, 2000, 3000, 4000, 5000, 6000, 6500, 7000}
	return FromSeries(cost.Fig11(128, as, PaperN, PaperBPages, PaperMemPages))
}

// Fig12Model is the small-transaction detail at L=128 (model), exposing
// the ceil(A/L) steps.
func Fig12Model() Grid {
	var as []int
	for a := 1; a <= 300; a += 10 {
		as = append(as, a)
	}
	return FromSeries(cost.Fig12(128, as, PaperN, PaperBPages, PaperMemPages))
}

// Variant is one of the five method variants measured on the simulator.
type Variant struct {
	Label    string
	Strategy catalog.Strategy
	ClusterB bool // cluster B locally on the join attribute
}

// Variants in the paper's legend order.
func Variants() []Variant {
	return []Variant{
		{Label: "auxiliary relation", Strategy: catalog.StrategyAuxRel, ClusterB: false},
		{Label: "naive (non-clustered index)", Strategy: catalog.StrategyNaive, ClusterB: false},
		{Label: "naive (clustered index)", Strategy: catalog.StrategyNaive, ClusterB: true},
		{Label: "global index (dist non-clustered)", Strategy: catalog.StrategyGlobalIndex, ClusterB: false},
		{Label: "global index (dist clustered)", Strategy: catalog.StrategyGlobalIndex, ClusterB: true},
	}
}

// extensionVariants are the three methods the extension experiments
// compare: the routed ones and the naive method at its best (clustered).
var extensionVariants = []Variant{
	{Label: "auxiliary relation", Strategy: catalog.StrategyAuxRel},
	{Label: "global index", Strategy: catalog.StrategyGlobalIndex},
	{Label: "naive (clustered index)", Strategy: catalog.StrategyNaive, ClusterB: true},
}

// MeasuredTW runs one single-tuple insert on a fresh cluster and returns
// the maintenance-only total workload: all I/Os except the base-relation
// insert and the view writes, which §3.1 excludes ("the same updates must
// be performed ... in our model we omit the cost of these updates").
func MeasuredTW(l, fanout int, v Variant) (int64, error) {
	c, spec, err := loadTwoRel(cluster.Config{Nodes: l, Algo: node.AlgoIndex}, workload.TwoRel{Fanout: fanout}, v)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	delta := spec.AInserts(1, 1)
	before := c.Metrics()
	if err := c.Insert("a", delta); err != nil {
		return 0, err
	}
	d := c.Metrics().Sub(before)
	vrows, err := c.ViewRows("jv")
	if err != nil {
		return 0, err
	}
	n := int64(len(vrows))
	// Exclude: one base insert (2 I/Os) and n view inserts (2 I/Os each).
	return d.TotalIOs() - 2 - 2*n, nil
}

// MeasuredResponse runs one transaction of a tuples and returns the
// maximum per-node I/O count (the response-time proxy) and the total
// workload. algo pins the join algorithm as the paper's figures do.
func MeasuredResponse(l, fanout, a int, v Variant, algo node.Algo) (maxNode, total int64, err error) {
	c, spec, err := loadTwoRel(cluster.Config{Nodes: l, Algo: algo}, workload.TwoRel{Fanout: fanout}, v)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	delta := spec.AInserts(a, 1)
	before := c.Metrics()
	if err := c.Insert("a", delta); err != nil {
		return 0, 0, err
	}
	d := c.Metrics().Sub(before)
	return d.MaxNodeIOs(), d.TotalIOs(), nil
}

// loadTwoRel builds a cluster from cfg and loads the paper's two-relation
// workload (640 join values) for one variant; the caller closes it.
func loadTwoRel(cfg cluster.Config, spec workload.TwoRel, v Variant) (*cluster.Cluster, workload.TwoRel, error) {
	c, err := newCluster(cfg)
	if err != nil {
		return nil, spec, err
	}
	spec.JoinValues, spec.ClusterBOnJoin = 640, v.ClusterB
	if err := spec.Load(c, v.Strategy); err != nil {
		c.Close()
		return nil, spec, err
	}
	return c, spec.Defaulted(), nil
}

// variantGrid measures one cell per (axis value, method variant): the
// layout of Figures 7–11, one row per axis value, one column per variant.
func variantGrid(title, axis string, xs []int, cell func(x int, v Variant) (int64, error)) (Grid, error) {
	g := Grid{Title: title, Header: []string{axis}}
	for _, v := range Variants() {
		g.Header = append(g.Header, v.Label)
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%d", x)}
		for _, v := range Variants() {
			y, err := cell(x, v)
			if err != nil {
				return Grid{}, fmt.Errorf("%s=%d %s: %w", axis, x, v.Label, err)
			}
			row = append(row, fmt.Sprintf("%d", y))
		}
		g.Rows = append(g.Rows, row)
	}
	return g, nil
}

// Fig7Measured reruns Figure 7 on the simulator: measured maintenance TW
// per single-tuple insert vs L, for all five variants.
func Fig7Measured(ls []int) (Grid, error) {
	return variantGrid("Fig 7 (measured): maintenance TW per single-tuple insert vs L", "L", ls,
		func(l int, v Variant) (int64, error) { return MeasuredTW(l, PaperN, v) })
}

// Fig8Measured reruns Figure 8: measured maintenance TW per single-tuple
// insert vs the join fan-out N, at fixed L.
func Fig8Measured(l int, ns []int) (Grid, error) {
	return variantGrid(fmt.Sprintf("Fig 8 (measured): maintenance TW per single-tuple insert vs N (L=%d)", l), "N", ns,
		func(n int, v Variant) (int64, error) { return MeasuredTW(l, n, v) })
}

// Fig9Measured reruns Figure 9: response time (max per-node I/Os) of one
// 400-tuple transaction under forced index joins.
func Fig9Measured(ls []int) (Grid, error) {
	return measuredResponseGrid("Fig 9 (measured): 400-tuple transaction, index join", ls, 400, node.AlgoIndex)
}

// Fig10Measured reruns Figure 10: response of one 6,500-tuple transaction
// under forced sort-merge. The global-index method has no sort-merge path
// in the implementation (its lookups are inherently per-tuple), so its
// columns reflect index-style work, as noted in EXPERIMENTS.md.
func Fig10Measured(ls []int) (Grid, error) {
	return measuredResponseGrid("Fig 10 (measured): 6500-tuple transaction, sort-merge join", ls, 6500, node.AlgoSortMerge)
}

// Fig11Measured reruns Figure 11 at fixed L with the per-node automatic
// algorithm choice.
func Fig11Measured(l int, as []int) (Grid, error) {
	return variantGrid(fmt.Sprintf("Fig 11 (measured): response (max per-node I/Os) vs tuples inserted (L=%d)", l), "A", as,
		func(a int, v Variant) (int64, error) {
			mx, _, err := MeasuredResponse(l, PaperN, a, v, node.AlgoAuto)
			return mx, err
		})
}

func measuredResponseGrid(title string, ls []int, a int, algo node.Algo) (Grid, error) {
	return variantGrid(title, "L", ls, func(l int, v Variant) (int64, error) {
		mx, _, err := MeasuredResponse(l, PaperN, a, v, algo)
		return mx, err
	})
}

// Fig13Predicted reproduces Figure 13: the model's predicted maintenance
// time (the pricer's index-nested-loop response) for views JV1 and JV2 when
// 128 tuples are inserted into customer, in the paper's unit of 128 I/Os.
// The naive method broadcasts into non-clustered secondary indexes
// (fan-outs 1 then 4 per Table 1); the AR method routes to clustered
// auxiliary relations; customer needs no AR of its own, so neither pays
// upkeep.
func Fig13Predicted(ls []int) Grid {
	const a = 128
	naive := []cost.Step{{Via: plan.ViaBroadcast, Fanout: 1}, {Via: plan.ViaBroadcast, Fanout: 4}}
	ar := []cost.Step{{Via: plan.ViaRoute, Fanout: 1, Clustered: true}, {Via: plan.ViaRoute, Fanout: 4, Clustered: true}}
	g := Grid{
		Title:  "Fig 13: predicted view maintenance time (unit = 128 I/Os)",
		Header: []string{"L", "AR method JV1", "naive JV1", "AR method JV2", "naive JV2"},
	}
	for _, l := range ls {
		resp := func(steps []cost.Step) string {
			_, r := cost.Chain(l, a, steps)
			return fmtF(r / a)
		}
		g.Rows = append(g.Rows, []string{fmt.Sprintf("%d", l), resp(ar[:1]), resp(naive[:1]), resp(ar), resp(naive)})
	}
	return g
}

// Fig14Result is one measured cell of Figure 14.
type Fig14Result struct {
	L          int
	View       string
	Method     catalog.Strategy
	JoinTuples int
	// MaxNodeIOs is the response-time proxy for the "compute the changes"
	// step the paper timed.
	MaxNodeIOs int64
	TotalIOs   int64
	Messages   int64
}

// Fig14Measured reruns the paper's Teradata experiment on the simulator:
// load the Table 1 data set (scaled), define JV1 and JV2, then measure the
// cost of computing the view changes for a 128-tuple insert into customer
// under the naive and AR methods — plus the global-index method Teradata
// could not run.
func Fig14Measured(ls []int, custScaleDiv int, a int) ([]Fig14Result, error) {
	if custScaleDiv <= 0 {
		custScaleDiv = 100
	}
	if a <= 0 {
		a = 128
	}
	spec := workload.TPCR{Customers: 150000 / custScaleDiv}.Defaulted()
	var out []Fig14Result
	cell := func(l int, method catalog.Strategy) error {
		c, err := newCluster(cluster.Config{Nodes: l})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := spec.Load(c); err != nil {
			return err
		}
		for _, vd := range []*catalog.View{paperJV1(method), paperJV2(method)} {
			if err := c.CreateView(vd); err != nil {
				return err
			}
			delta, err := spec.NewCustomers(a)
			if err != nil {
				return err
			}
			nTuples, m, err := c.ComputeViewDeltaOnly(vd.Name, "customer", delta, method)
			if err != nil {
				return err
			}
			out = append(out, Fig14Result{
				L: l, View: vd.Name, Method: method,
				JoinTuples: nTuples,
				MaxNodeIOs: m.MaxNodeIOs(),
				TotalIOs:   m.TotalIOs(),
				Messages:   m.Net.Messages,
			})
		}
		return nil
	}
	for _, l := range ls {
		for _, method := range []catalog.Strategy{catalog.StrategyAuxRel, catalog.StrategyNaive, catalog.StrategyGlobalIndex} {
			if err := cell(l, method); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Fig14Grid renders Fig14 results in the paper's layout (one column per
// view/method curve).
func Fig14Grid(results []Fig14Result) Grid {
	type key struct {
		view   string
		method catalog.Strategy
	}
	cols := []key{
		{"jv1", catalog.StrategyAuxRel}, {"jv1", catalog.StrategyNaive}, {"jv1", catalog.StrategyGlobalIndex},
		{"jv2", catalog.StrategyAuxRel}, {"jv2", catalog.StrategyNaive}, {"jv2", catalog.StrategyGlobalIndex},
	}
	g := Grid{
		Title: "Fig 14 (measured): view maintenance cost, 128-tuple insert into customer (max per-node I/Os)",
		Header: []string{"L",
			"AR JV1", "naive JV1", "GI JV1",
			"AR JV2", "naive JV2", "GI JV2"},
	}
	byLK := map[int]map[key]int64{}
	var lsSeen []int
	for _, r := range results {
		if _, ok := byLK[r.L]; !ok {
			byLK[r.L] = map[key]int64{}
			lsSeen = append(lsSeen, r.L)
		}
		byLK[r.L][key{r.View, r.Method}] = r.MaxNodeIOs
	}
	for _, l := range lsSeen {
		row := []string{fmt.Sprintf("%d", l)}
		for _, k := range cols {
			row = append(row, fmt.Sprintf("%d", byLK[l][k]))
		}
		g.Rows = append(g.Rows, row)
	}
	return g
}

// BufferingEffect reproduces the §3.3 observation the paper could only
// describe: "the analytical model was less accurate for large updates than
// for small. This is likely due to the impact of buffering — with large
// insert transactions substantial fractions of the base and auxiliary
// relations end up getting cached in main memory."
//
// It isolates the delta-join step of a large transaction (as §3.3 did)
// on clusters with per-node buffer pools large enough to hold the probed
// relation, and reports the logical I/Os (the model's currency) next to
// the physical I/Os a cached system pays. Logically the naive method does
// L× the AR method's work; physically both collapse toward zero once the
// relation is resident — "the performance of the naive and auxiliary
// relation methods became comparable".
func BufferingEffect(l, a, bufferPages int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Buffering effect (§3.3): delta join of a %d-tuple transaction, L=%d, %d-page pools", a, l, bufferPages),
		Header: []string{"method", "logical I/Os (model)", "physical I/Os (cached)"},
	}
	for _, v := range []Variant{extensionVariants[2], extensionVariants[0]} {
		c, spec, err := loadTwoRel(cluster.Config{Nodes: l, Algo: node.AlgoIndex, BufferPages: bufferPages},
			workload.TwoRel{Fanout: PaperN}, v)
		if err != nil {
			return Grid{}, err
		}
		// The load leaves the relations resident, as a production system
		// in steady state would be; writes to base and view are excluded
		// because they always touch fresh pages under every method.
		_, m, err := c.ComputeViewDeltaOnly("jv", "a", spec.AInserts(a, 1), v.Strategy)
		c.Close()
		if err != nil {
			return Grid{}, err
		}
		g.Rows = append(g.Rows, []string{
			v.Label,
			fmt.Sprintf("%d", m.TotalIOs()),
			fmt.Sprintf("%d", m.PhysicalIOs()),
		})
	}
	return g, nil
}

// insertEach inserts delta into "a" one single-row statement at a time.
func insertEach(c *cluster.Cluster, delta []types.Tuple) error {
	for _, tup := range delta {
		if err := c.Insert("a", []types.Tuple{tup}); err != nil {
			return err
		}
	}
	return nil
}

// SkewSensitivity extends the paper's uniform-distribution assumption 9:
// it measures each method's response time (max per-node I/Os) for a
// transaction whose join values are uniform vs Zipf-skewed. The naive
// method is skew-immune (every node does everything regardless); the
// routed methods develop hotspots at the node owning the hot values.
func SkewSensitivity(l, a int, zipfS float64) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Skew sensitivity (extension): response of a %d-tuple transaction, L=%d, Zipf s=%.1f", a, l, zipfS),
		Header: []string{"method", "uniform maxnode I/Os", "skewed maxnode I/Os", "skew penalty"},
	}
	for _, v := range extensionVariants {
		measure := func(zs float64) (int64, error) {
			c, spec, err := loadTwoRel(cluster.Config{Nodes: l, Algo: node.AlgoIndex}, workload.TwoRel{Fanout: 1, ZipfS: zs}, v)
			if err != nil {
				return 0, err
			}
			defer c.Close()
			before := c.Metrics()
			if err := c.Insert("a", spec.AInserts(a, 1)); err != nil {
				return 0, err
			}
			return c.Metrics().Sub(before).MaxNodeIOs(), nil
		}
		uniform, err := measure(0)
		if err != nil {
			return Grid{}, err
		}
		skewed, err := measure(zipfS)
		if err != nil {
			return Grid{}, err
		}
		g.Rows = append(g.Rows, []string{
			v.Label,
			fmt.Sprintf("%d", uniform),
			fmt.Sprintf("%d", skewed),
			fmt.Sprintf("%.2fx", float64(skewed)/float64(uniform)),
		})
	}
	return g, nil
}

// StorageTradeoff quantifies the paper's space-for-time trade ("the last
// two methods improve performance at the cost of using more space"): for
// each method, the extra rows its structures store for the two-relation
// workload and the maintenance TW of a single-tuple insert.
func StorageTradeoff(l, fanout int) (Grid, error) {
	g := Grid{
		Title:  fmt.Sprintf("Storage vs maintenance trade-off (L=%d, N=%d, |B|=6400 rows)", l, fanout),
		Header: []string{"method", "extra rows", "extra values", "maintenance TW (I/Os)"},
	}
	for _, v := range []Variant{
		{Label: "naive", Strategy: catalog.StrategyNaive, ClusterB: false},
		{Label: "auxiliary relation", Strategy: catalog.StrategyAuxRel, ClusterB: false},
		{Label: "global index", Strategy: catalog.StrategyGlobalIndex, ClusterB: false},
	} {
		c, _, err := loadTwoRel(cluster.Config{Nodes: l, Algo: node.AlgoIndex}, workload.TwoRel{Fanout: fanout}, v)
		if err != nil {
			return Grid{}, err
		}
		rep, err := c.StorageReport()
		c.Close()
		if err != nil {
			return Grid{}, err
		}
		tw, err := MeasuredTW(l, fanout, v)
		if err != nil {
			return Grid{}, err
		}
		g.Rows = append(g.Rows, []string{
			v.Label,
			fmt.Sprintf("%d", rep.Overhead()),
			fmt.Sprintf("%d", rep.OverheadValues()),
			fmt.Sprintf("%d", tw),
		})
	}
	return g, nil
}

// Durability measures what write-ahead logging and two-phase commit cost
// each maintenance method, and what they buy at recovery (extension): the
// same single-row insert stream runs once plain and once in Durability
// mode (every statement redo-logged at its participants and committed via
// presumed-abort 2PC; checkpoints every ckptEvery records). The durable
// columns carry the overhead — log pages in the I/O totals (node logs plus
// the coordinator's forced decision log) and Prepare/Decide rounds in the
// messages. Then one node fail-stops: the durable cluster recovers it from
// checkpoint + log-tail replay, the plain cluster from a full derived-
// fragment rebuild off the base relations, and the last columns compare
// the recovery page I/O the two paths cost.
func Durability(l, streamLen, ckptEvery int) (Grid, error) {
	g := Grid{
		Title: fmt.Sprintf("Durability (extension): %d single-row inserts, L=%d, checkpoint every %d records",
			streamLen, l, ckptEvery),
		Header: []string{"method", "I/Os plain", "I/Os durable", "msgs plain", "msgs durable",
			"replay pages", "rebuild pages"},
	}
	// run streams the inserts plain or durable, then fails node 0 and
	// recovers it: stream I/Os, stream messages, recovery page I/Os.
	run := func(v Variant, durable bool) (ios, msgs, recoveryPages int64, err error) {
		c, spec, err := loadTwoRel(cluster.Config{
			Nodes: l, Algo: node.AlgoIndex, Durability: durable, CheckpointEvery: ckptEvery,
		}, workload.TwoRel{Fanout: PaperN}, v)
		if err != nil {
			return 0, 0, 0, err
		}
		defer c.Close()
		if durable {
			// Checkpoint after the bulk load (standard practice), so
			// recovery replays from the image rather than from genesis;
			// further checkpoints auto-trigger every ckptEvery records
			// and count as stream overhead.
			if _, err := c.Checkpoint(); err != nil {
				return 0, 0, 0, err
			}
		}
		delta := spec.AInserts(streamLen, 1)
		c.ResetMetrics()
		if err := insertEach(c, delta); err != nil {
			return 0, 0, 0, err
		}
		m := c.Metrics()
		if durable {
			if err := c.CrashNode(0); err != nil {
				return 0, 0, 0, err
			}
		}
		rep, err := c.RecoverWithReport(0)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := c.CheckViewConsistency("jv"); err != nil {
			return 0, 0, 0, fmt.Errorf("%s after %s recovery: %w", v.Label, rep.Mode, err)
		}
		return m.TotalIOs() + m.Coord.IOs(), m.Net.Messages, rep.PageIOs, nil
	}
	for _, v := range extensionVariants {
		iosPlain, msgsPlain, rebuildPages, err := run(v, false)
		if err != nil {
			return Grid{}, err
		}
		iosDurable, msgsDurable, replayPages, err := run(v, true)
		if err != nil {
			return Grid{}, err
		}
		g.Rows = append(g.Rows, []string{
			v.Label,
			fmt.Sprintf("%d", iosPlain),
			fmt.Sprintf("%d", iosDurable),
			fmt.Sprintf("%d", msgsPlain),
			fmt.Sprintf("%d", msgsDurable),
			fmt.Sprintf("%d", replayPages),
			fmt.Sprintf("%d", rebuildPages),
		})
	}
	return g, nil
}

// paperJV1 is §3.3's JV1: customer ⋈ orders on custkey.
func paperJV1(s catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:   "jv1",
		Tables: []string{"customer", "orders"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: s,
	}
}

// paperJV2 is §3.3's JV2: customer ⋈ orders ⋈ lineitem.
func paperJV2(s catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:   "jv2",
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
			{Table: "lineitem", Col: "discount"}, {Table: "lineitem", Col: "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: s,
	}
}

// FaultOverhead measures what fault tolerance costs each maintenance
// method (extension): a stream of single-row inserts runs once on a clean
// network and once with a seeded injector dropping requests and replies,
// duplicating deliveries and raising transient handler errors at the
// given per-kind rate. Retries and sequence-number dedup must mask every
// fault, so the visible difference is overhead: extra messages and
// coordinator retries per update. The naive method's broadcasts give a
// fault more deliveries to hit per statement; the routed methods expose
// fewer.
func FaultOverhead(l, streamLen int, rate float64, seed int64) (Grid, error) {
	g := Grid{
		Title: fmt.Sprintf("Fault overhead (extension): %d single-row inserts, L=%d, %.1f%% per-kind fault rate",
			streamLen, l, rate*100),
		Header: []string{"method", "I/Os clean", "I/Os faulty", "msgs clean", "msgs faulty", "retries", "faults injected", "repairs replayed", "recovery pages"},
	}
	// run streams the inserts through the (optionally nil) injector and
	// returns the stream's metrics plus what repairing fenced nodes cost.
	run := func(v Variant, inj *fault.Injector) (m cluster.Metrics, repairsReplayed, recoveryPages int64, err error) {
		c, spec, err := loadTwoRel(cluster.Config{Nodes: l, Algo: node.AlgoIndex, Faults: inj, RetryAttempts: 8},
			workload.TwoRel{Fanout: PaperN}, v)
		if err != nil {
			return m, 0, 0, err
		}
		defer c.Close()
		delta := spec.AInserts(streamLen, 1)
		c.ResetMetrics()
		if inj != nil {
			inj.Arm()
		}
		for _, tup := range delta {
			// A fault burst can outlast the per-call retry budget; the
			// statement rolls back cleanly, so rerun it like an
			// operator would (repairing any node the coordinator
			// fenced first). Statement retries are part of the
			// overhead being measured.
			var err error
			for attempt := 0; attempt < 20; attempt++ {
				for _, n := range c.Degraded() {
					rep, rerr := c.RecoverWithReport(n)
					if rerr != nil {
						return m, 0, 0, rerr
					}
					repairsReplayed += int64(rep.RepairsReplayed)
					recoveryPages += rep.PageIOs
				}
				if err = c.Insert("a", []types.Tuple{tup}); err == nil {
					break
				}
			}
			if err != nil {
				return m, 0, 0, err
			}
		}
		return c.Metrics(), repairsReplayed, recoveryPages, nil
	}
	for _, v := range extensionVariants {
		clean, _, _, err := run(v, nil)
		if err != nil {
			return Grid{}, err
		}
		inj := fault.New(fault.Config{Seed: seed, DropRequest: rate, DropReply: rate, Duplicate: rate, HandlerErr: rate})
		faulty, repairsReplayed, recoveryPages, err := run(v, inj)
		if err != nil {
			return Grid{}, err
		}
		g.Rows = append(g.Rows, []string{
			v.Label,
			fmt.Sprintf("%d", clean.TotalIOs()),
			fmt.Sprintf("%d", faulty.TotalIOs()),
			fmt.Sprintf("%d", clean.Net.Messages),
			fmt.Sprintf("%d", faulty.Net.Messages),
			fmt.Sprintf("%d", faulty.Retries),
			fmt.Sprintf("%d", inj.Stats().Total()),
			fmt.Sprintf("%d", repairsReplayed),
			fmt.Sprintf("%d", recoveryPages),
		})
	}
	return g, nil
}

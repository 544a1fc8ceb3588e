package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/node"
)

// The elasticity experiment measures what online expansion costs: a
// 4-node cluster runs concurrent insert sessions, a fifth node is added
// live (snapshot copy + delta catch-up + exclusive cutover), and the
// sessions keep committing throughout. The interesting numbers are the
// throughput dip while the migration competes for locks and bandwidth,
// the post-expansion recovery above the 4-node baseline (the same
// workload now spreads over five nodes), and the migration's own bill:
// pages copied, envelopes sent, catch-up queue depth, cutover stall.

// ElasticPhase is one measurement window of the experiment.
type ElasticPhase struct {
	// Phase is "before" (4 nodes), "during" (expansion in flight) or
	// "after" (5 nodes).
	Phase string
	// Stmts is the number of statements the sessions committed in the
	// window; StmtsPerSec the whole-cluster throughput.
	Stmts       int
	StmtsPerSec float64
	// TWIOs is the paper's total workload: I/Os summed over all nodes
	// during the window; IOsPerStmt the per-statement average.
	TWIOs      int64
	IOsPerStmt float64
}

// ElasticResult is one strategy's measurement.
type ElasticResult struct {
	Strategy string
	Sessions int
	// Phases holds the before/during/after windows in order.
	Phases []ElasticPhase
	// StatementErrors counts failed statements across all windows; online
	// expansion promises zero.
	StatementErrors int
	// Migration is the expansion's own cost accounting.
	Migration cluster.MigrationStats
	// NodesBefore and NodesAfter frame the expansion (4 → 5).
	NodesBefore, NodesAfter int
}

// Elastic runs the experiment for every maintenance strategy: sessions
// concurrent insert sessions against a 4-node cluster, stmtsPerPhase
// statements per session in the before- and after-windows, with the
// expansion measured in between under continuous load.
func Elastic(sessions, stmtsPerPhase, rowsPerStmt int) ([]ElasticResult, error) {
	var out []ElasticResult
	for _, st := range ConcurrentStrategies() {
		r, err := runElastic(st.Label, st.Strategy, sessions, stmtsPerPhase, rowsPerStmt)
		if err != nil {
			return nil, fmt.Errorf("elastic %s: %w", st.Label, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runElastic(label string, strategy catalog.Strategy, sessions, stmtsPerPhase, rowsPerStmt int) (ElasticResult, error) {
	c, err := cluster.New(cluster.Config{
		Nodes: 4, Algo: node.AlgoIndex, UseChannels: true,
		NetLatency: DefaultNetLatency,
	})
	if err != nil {
		return ElasticResult{}, err
	}
	defer c.Close()
	if err := LoadSessionSchemas(c, sessions, strategy); err != nil {
		return ElasticResult{}, err
	}
	res := ElasticResult{Strategy: label, Sessions: sessions, NodesBefore: c.NumNodes()}
	var stmtErrs atomic.Int64
	stmtSeq := make([]int, sessions) // per-session statement cursor

	// runWindow commits stmtsPerPhase statements per session concurrently
	// and returns the throughput/IO measurement for the window.
	runWindow := func(phase string) ElasticPhase {
		c.ResetMetrics()
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				table := fmt.Sprintf("a%d", s)
				for j := 0; j < stmtsPerPhase; j++ {
					if e := c.Insert(table, SessionInserts(s, stmtSeq[s]+j, rowsPerStmt)); e != nil {
						stmtErrs.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for s := range stmtSeq {
			stmtSeq[s] += stmtsPerPhase
		}
		total := sessions * stmtsPerPhase
		tw := c.Metrics().TotalIOs()
		return ElasticPhase{
			Phase: phase, Stmts: total,
			StmtsPerSec: float64(total) / elapsed,
			TWIOs:       tw,
			IOsPerStmt:  float64(tw) / float64(total),
		}
	}

	res.Phases = append(res.Phases, runWindow("before"))

	// During: sessions run continuously while AddNode migrates; the
	// window covers the expansion exactly. Sessions pace themselves with
	// a short think time — zero-think-time saturation makes the delta
	// catch-up race unwinnable for any migration scheme (the queue grows
	// faster than any replayer can drain it), and the cutover would stall
	// for the whole backlog.
	c.ResetMetrics()
	stop := make(chan struct{})
	var during atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := fmt.Sprintf("a%d", s)
			j := 0
			for {
				select {
				case <-stop:
					stmtSeq[s] += j
					return
				default:
				}
				if e := c.Insert(table, SessionInserts(s, stmtSeq[s]+j, rowsPerStmt)); e != nil {
					stmtErrs.Add(1)
				} else {
					during.Add(1)
				}
				j++
				time.Sleep(elasticThinkTime)
			}
		}()
	}
	start := time.Now()
	_, addErr := c.AddNode()
	close(stop)
	wg.Wait()
	if addErr != nil {
		return ElasticResult{}, fmt.Errorf("AddNode: %w", addErr)
	}
	elapsed := time.Since(start).Seconds()
	stmts := int(during.Load())
	tw := c.Metrics().TotalIOs()
	ph := ElasticPhase{
		Phase: "during", Stmts: stmts,
		StmtsPerSec: float64(stmts) / elapsed,
		TWIOs:       tw,
	}
	if stmts > 0 {
		ph.IOsPerStmt = float64(tw) / float64(stmts)
	}
	res.Phases = append(res.Phases, ph)
	if mig, ok := c.LastMigration(); ok {
		res.Migration = mig
	}

	res.Phases = append(res.Phases, runWindow("after"))
	res.NodesAfter = c.NumNodes()
	res.StatementErrors = int(stmtErrs.Load())
	if err := c.CheckAllStructures(); err != nil {
		return ElasticResult{}, fmt.Errorf("post-expansion consistency: %w", err)
	}
	return res, nil
}

// elasticThinkTime is the per-session pause between statements while the
// migration runs (a session with zero think time produces deltas faster
// than the catch-up replayer can drain them, growing the cutover stall
// without bound).
const elasticThinkTime = 2 * time.Millisecond

// ElasticGrid formats the results.
func ElasticGrid(rs []ElasticResult) Grid {
	g := Grid{
		Title: "Online elasticity (extension): 4 -> 5 node expansion under concurrent sessions",
		Header: []string{"method", "phase", "stmts/s", "TW I/Os", "I/Os per stmt",
			"pages copied", "envelopes", "cutover stall", "errors"},
	}
	for _, r := range rs {
		for _, p := range r.Phases {
			row := []string{r.Strategy, p.Phase,
				fmt.Sprintf("%.0f", p.StmtsPerSec),
				fmt.Sprintf("%d", p.TWIOs),
				fmt.Sprintf("%.1f", p.IOsPerStmt),
				"", "", "", ""}
			if p.Phase == "during" {
				row[5] = fmt.Sprintf("%d", r.Migration.PagesCopied)
				row[6] = fmt.Sprintf("%d", r.Migration.Envelopes)
				row[7] = r.Migration.CutoverStall.Round(time.Microsecond).String()
				row[8] = fmt.Sprintf("%d", r.StatementErrors)
			}
			g.Rows = append(g.Rows, row)
		}
	}
	return g
}

// ElasticCopy prices a 4 -> 5 node expansion per maintenance method on a
// quiesced cluster: sessions session schemas take stmts inserts of rows
// tuples each from one goroutine, a fifth node is added with no statement
// in flight, and the same stream runs again on five nodes. The copy
// columns are the migration's own bill (MigrationStats) — deterministic
// only because nothing commits during the copy; the before/after columns
// show the maintenance cost per statement the expansion leaves behind.
// Any failed statement fails the run. Zero statement errors *under*
// concurrent sessions is TestMigrationWithConcurrentDML's claim
// (internal/cluster); the throughput dip during the copy has no benchmark
// workload yet (ROADMAP).
func ElasticCopy(sessions, stmts, rows int) (Grid, error) {
	g := Grid{
		Title: fmt.Sprintf("Online elasticity (extension): quiesced 4 -> 5 node expansion, %d statements x %d rows per window", sessions*stmts, rows),
		Header: []string{"method", "tw-ios before", "ios/stmt before", "rows copied", "pages copied", "envelopes",
			"tw-ios after", "ios/stmt after", "nodes"},
	}
	for _, st := range ConcurrentStrategies() {
		c, err := newCluster(cluster.Config{Nodes: 4, Algo: node.AlgoIndex})
		if err != nil {
			return Grid{}, err
		}
		defer c.Close()
		if err := LoadSessionSchemas(c, sessions, st.Strategy); err != nil {
			return Grid{}, err
		}
		seq := 0
		window := func() (int64, error) {
			c.ResetMetrics()
			for j := 0; j < stmts; j++ {
				for s := 0; s < sessions; s++ {
					if err := c.Insert(fmt.Sprintf("a%d", s), SessionInserts(s, seq+j, rows)); err != nil {
						return 0, err
					}
				}
			}
			seq += stmts
			return c.Metrics().TotalIOs(), nil
		}
		before, err := window()
		if err != nil {
			return Grid{}, fmt.Errorf("elastic %s: %w", st.Label, err)
		}
		if _, err := c.AddNode(); err != nil {
			return Grid{}, fmt.Errorf("elastic %s: AddNode: %w", st.Label, err)
		}
		mig, _ := c.LastMigration()
		after, err := window()
		if err != nil {
			return Grid{}, fmt.Errorf("elastic %s: %w", st.Label, err)
		}
		if err := c.CheckAllStructures(); err != nil {
			return Grid{}, fmt.Errorf("elastic %s: post-expansion consistency: %w", st.Label, err)
		}
		total := float64(sessions * stmts)
		g.Rows = append(g.Rows, []string{
			st.Label,
			fmt.Sprint(before), fmt.Sprintf("%.1f", float64(before)/total),
			fmt.Sprint(mig.RowsCopied), fmt.Sprint(mig.PagesCopied), fmt.Sprint(mig.Envelopes),
			fmt.Sprint(after), fmt.Sprintf("%.1f", float64(after)/total),
			fmt.Sprint(c.NumNodes()),
		})
	}
	return g, nil
}

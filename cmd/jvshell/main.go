// Command jvshell is an interactive SQL shell over the parallel-RDBMS
// simulator. It accepts the SQL subset the paper's experiments use
// (CREATE TABLE / INDEX / GLOBAL INDEX / AUXILIARY RELATION / VIEW,
// INSERT, DELETE, UPDATE, SELECT) plus shell commands:
//
//	\metrics           show per-node I/O counters and message totals
//	\watermark         show the async-maintenance watermark and queue state
//	\flush             drain the async maintenance queue (one epoch)
//	\reset             zero the counters
//	\check <view>      verify view v against a recomputed join
//	\explain <view> <table>   show the maintenance method and plan the
//	                   view's compiled stage runs for updates of the table
//	\pipeline <table> [op]   show the compiled maintenance pipeline for
//	                   insert (default) or delete statements on the table,
//	                   including the shared maintenance DAG when several
//	                   views share delta-join prefixes
//	\advise            run the materialization advisor: which auxiliary
//	                   relations / global indexes are worth materializing
//	                   for the current view population
//	\tables            list tables, auxiliary structures and views
//	\storage           show the space footprint of every stored object
//	\topology          show the partition-map epoch, per-node hash slots,
//	                   node liveness, per-slot replica sets, and any
//	                   in-flight migration or re-replication round
//	\quit              exit
//
// Usage: jvshell [-nodes 4] [-replicas K] [-channels] [-async] [-epoch N] [-f script.sql]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"joinview"
)

func main() {
	nodes := flag.Int("nodes", 4, "number of data-server nodes")
	replicas := flag.Int("replicas", 1, "replication factor K (copies per fragment, 1 = none)")
	channels := flag.Bool("channels", false, "run nodes as goroutines with channel transport")
	async := flag.Bool("async", false, "defer view maintenance to the epoch-batched queue")
	epoch := flag.Int("epoch", 0, "with -async, background-flush every N deferred statements")
	script := flag.String("f", "", "run a SQL script file before the interactive prompt")
	flag.Parse()

	db, err := joinview.Open(joinview.Options{
		Nodes: *nodes, ReplicationFactor: *replicas, UseChannels: *channels,
		AsyncMaintenance: *async, EpochSize: *epoch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jvshell:", err)
		os.Exit(1)
	}
	defer db.Close()

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jvshell:", err)
			os.Exit(1)
		}
		runSQL(db, string(data))
	}

	session := db.NewSession()
	fmt.Printf("joinview shell — %d-node parallel RDBMS simulator (\\quit to exit)\n", *nodes)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "jv> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if handleMeta(db, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "  > "
			continue
		}
		stmt := buf.String()
		buf.Reset()
		prompt = "jv> "
		runSession(session, stmt)
	}
}

// handleMeta executes a shell command; it returns true to exit.
func handleMeta(db *joinview.DB, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\metrics":
		m := db.Metrics()
		total := m.Total()
		fmt.Printf("total I/Os: %d   max node I/Os: %d   messages: %d\n",
			m.TotalIOs(), m.MaxNodeIOs(), m.Net.Messages)
		fmt.Printf("searches: %d  fetches: %d  inserts: %d  deletes: %d  scan pages: %d  sort pages: %d\n",
			total.Searches, total.Fetches, total.Inserts, total.Deletes, total.ScanPages, total.SortPages)
		for i, nc := range m.Node {
			fmt.Printf("  node %d: %d I/Os\n", i, nc.IOs())
		}
	case "\\watermark":
		w := db.Watermark()
		fmt.Printf("epoch %d   flushed through seq %d   pending %d   lag %v\n",
			w.Epoch, w.FlushedSeq, w.Pending, w.Lag)
		q := db.Metrics().Queue
		fmt.Printf("enqueued: %d stmts / %d tuples   epochs flushed: %d   cancelled: %d (%.1f%%)   overloads: %d\n",
			q.DeltasEnqueued, q.TuplesEnqueued, q.EpochsFlushed, q.DeltasCancelled, 100*q.CancelRate(), q.Overloads)
	case "\\flush":
		if err := db.Flush(); err != nil {
			fmt.Println("flush:", err)
			break
		}
		w := db.Watermark()
		fmt.Printf("queue drained; watermark at epoch %d\n", w.Epoch)
	case "\\reset":
		db.ResetMetrics()
		fmt.Println("counters reset")
	case "\\check":
		if len(fields) < 2 {
			fmt.Println("usage: \\check <view>")
			break
		}
		if err := db.CheckViewConsistency(fields[1]); err != nil {
			fmt.Println("INCONSISTENT:", err)
		} else {
			fmt.Printf("view %s is consistent with its definition\n", fields[1])
		}
	case "\\explain":
		if len(fields) < 3 {
			fmt.Println("usage: \\explain <view> <table>")
			break
		}
		out, err := db.Cluster().ExplainMaintenance(fields[1], fields[2])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(out)
	case "\\pipeline":
		if len(fields) < 2 {
			fmt.Println("usage: \\pipeline <table> [insert|delete]")
			break
		}
		op := "insert"
		if len(fields) > 2 {
			op = fields[2]
		}
		out, err := db.ExplainPipeline(fields[1], op)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(out)
	case "\\advise":
		adv, err := db.AdviseMaterialization()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(adv.Describe())
	case "\\tables":
		cat := db.Cluster().Catalog()
		for _, name := range cat.Tables() {
			t, _ := cat.Table(name)
			fmt.Printf("table %s (%v) partition on %s\n", name, t.Schema.Names(), t.PartitionCol)
			for _, ar := range cat.AuxRelsFor(name) {
				fmt.Printf("  auxrel %s on %s (%v)\n", ar.Name, ar.PartitionCol, ar.Cols)
			}
			for _, gi := range cat.GlobalIndexesFor(name) {
				kind := "non-clustered"
				if gi.DistClustered {
					kind = "clustered"
				}
				fmt.Printf("  global index %s on %s (distributed %s)\n", gi.Name, gi.Col, kind)
			}
		}
		for _, name := range cat.Views() {
			v, _ := cat.View(name)
			shape := "join view"
			if v.IsAggregate() {
				shape = "aggregate join view"
			}
			fmt.Printf("%s %s over %v using %s\n", shape, name, v.Tables, v.Strategy)
		}
	case "\\topology":
		top := db.Topology()
		fmt.Printf("partition map epoch %d, %d nodes, %d hash slots", top.Epoch, top.Nodes, len(top.SlotOwner))
		if top.ReplicationFactor > 1 {
			fmt.Printf(", replication factor %d", top.ReplicationFactor)
		}
		fmt.Println()
		owned := map[int][]int{}
		for slot, n := range top.SlotOwner {
			owned[n] = append(owned[n], slot)
		}
		follows := map[int][]int{}
		for slot, fs := range top.Replicas {
			for _, f := range fs {
				follows[f] = append(follows[f], slot)
			}
		}
		for n := 0; n < top.Nodes; n++ {
			slots := owned[n]
			label := ""
			for _, r := range top.Retired {
				if r == n {
					label = " (retired)"
				}
			}
			if len(top.NodeStatus) > n && top.NodeStatus[n] != "up" {
				label += " [" + top.NodeStatus[n] + "]"
			}
			fmt.Printf("  node %d%s: %d slots %v", n, label, len(slots), slots)
			if fs := follows[n]; len(fs) > 0 {
				fmt.Printf(", follower for %d slots %v", len(fs), fs)
			}
			fmt.Println()
		}
		if r := top.Repair; r != nil {
			fmt.Printf("re-replication in flight: phase %s, %d/%d objects copied, %d slot-replicas restoring\n",
				r.Phase, r.ObjectsDone, r.ObjectsTotal, r.Slots)
		}
		if m := top.InFlight; m != nil {
			fmt.Printf("migration %d in flight: phase %s, slots %v -> nodes %v\n",
				m.ID, m.Phase, m.Slots, m.Dsts)
		} else if stats, ok := db.LastMigration(); ok {
			outcome := "aborted"
			if stats.Committed {
				outcome = "committed"
			}
			fmt.Printf("last migration %d %s: %d slots, %d rows / %d pages copied, cutover stall %v\n",
				stats.ID, outcome, len(stats.Slots), stats.RowsCopied, stats.PagesCopied, stats.CutoverStall)
		} else {
			fmt.Println("no migration in flight")
		}
	case "\\storage":
		rep, err := db.StorageReport()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("%-24s %-12s %8s %6s %5s\n", "name", "kind", "rows", "pages", "cols")
		for _, e := range rep.Entries {
			fmt.Printf("%-24s %-12s %8d %6d %5d\n", e.Name, e.Kind, e.Rows, e.Pages, e.Cols)
		}
		fmt.Printf("auxiliary-structure overhead: %d rows (%d values)\n", rep.Overhead(), rep.OverheadValues())
	default:
		fmt.Println("commands: \\metrics \\watermark \\flush \\reset \\check <view> \\explain <view> <table> \\pipeline <table> [op] \\advise \\tables \\storage \\topology \\quit")
	}
	return false
}

func runSQL(db *joinview.DB, stmt string) {
	results, err := db.ExecScript(stmt)
	printResults(results, err)
}

// runSession executes through the session so BEGIN/COMMIT/ROLLBACK work.
func runSession(s *joinview.Session, stmt string) {
	results, err := s.ExecScript(stmt)
	printResults(results, err)
}

func printResults(results []*joinview.Result, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range results {
		switch {
		case r.Columns != nil:
			fmt.Println(strings.Join(r.Columns, " | "))
			for _, row := range r.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.GoString()
				}
				fmt.Println(strings.Join(cells, " | "))
			}
			fmt.Printf("(%d rows)\n", len(r.Rows))
		case r.Message != "":
			fmt.Println(r.Message)
		default:
			fmt.Printf("(%d rows affected)\n", r.Count)
		}
	}
}

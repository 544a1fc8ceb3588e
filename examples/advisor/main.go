// Advisor: the cost-based method chooser the paper's conclusion proposes
// ("our analytical model could form the basis for a cost model that would
// enable a system to choose the best approach automatically").
//
// A view created USING AUTO materializes both auxiliary relations and
// global indexes, and its compiled maintenance plan runs the cheapest
// method by the paper's total-workload model. That model charges in
// proportion to the update size, so the choice is made once per compiled
// plan, not per update; this example prints it with EXPLAIN. The
// closed-form response-time model that follows does depend on the update
// size: its sort-merge regime favours the naive method for bulk loads
// comparable to the base relation.
//
// Run with: go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"joinview"
	"joinview/internal/cost"
)

func main() {
	db, err := joinview.Open(joinview.Options{Nodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.ExecScript(`
		create table fact (id bigint, dimkey bigint, amount double) partition on id;
		create table dim (id bigint, dimkey bigint, label varchar) partition on id;
		create index ix_dim on dim (dimkey);
	`); err != nil {
		log.Fatal(err)
	}
	var dims []joinview.Tuple
	for i := int64(0); i < 2000; i++ {
		dims = append(dims, joinview.Tuple{
			joinview.Int(i), joinview.Int(i % 200), joinview.String("d"),
		})
	}
	if err := db.Insert("dim", dims); err != nil {
		log.Fatal(err)
	}
	if err := db.RefreshStats("dim"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(`
		create view fd as
		select fact.id, fact.amount, dim.label
		from fact, dim
		where fact.dimkey = dim.dimkey
		partition on fact.id
		using auto`); err != nil {
		log.Fatal(err)
	}

	out, err := db.ExplainPipeline("fact", "insert")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled maintenance of fd for every update of fact (8 nodes, fan-out 10):")
	fmt.Print(out)

	// The closed-form two-relation model prices response time, where the
	// sort-merge regime is visible: for updates comparable to |B| in pages,
	// the naive method with a clustered index wins (Fig 10/11).
	fmt.Println("\nresponse-time advisor from the closed-form model (|B| = 6,400 pages):")
	m := cost.Model{L: 8, N: 10, BPages: 6400, MemPages: 10}
	fmt.Printf("%10s  %-12s  %12s %12s %12s\n", "delta", "advice", "naive I/Os", "AR I/Os", "GI I/Os")
	for _, size := range []int{1, 128, 1024, 6500, 20000} {
		advice := m.Advise(size, true, true)
		fmt.Printf("%10d  %-12s  %12.0f %12.0f %12.0f\n",
			size, advice,
			m.Resp(cost.MethodNaiveClustered, size, cost.AlgoBest),
			m.Resp(cost.MethodAuxRel, size, cost.AlgoBest),
			m.Resp(cost.MethodGIClustered, size, cost.AlgoBest))
	}

	// Prove the auto view actually maintains correctly.
	var facts []joinview.Tuple
	for i := int64(0); i < 64; i++ {
		facts = append(facts, joinview.Tuple{
			joinview.Int(10000 + i), joinview.Int(i % 200), joinview.Float(1.5),
		})
	}
	if err := db.Insert("fact", facts); err != nil {
		log.Fatal(err)
	}
	if err := db.CheckViewConsistency("fd"); err != nil {
		log.Fatal(err)
	}
	rows, _ := db.ViewRows("fd")
	fmt.Printf("\ninserted 64 fact rows under auto maintenance; view consistent with %d rows\n", len(rows))
}

package joinview_test

import (
	"fmt"
	"log"

	"joinview"
)

// Example shows the minimal lifecycle: open a cluster, define the paper's
// JV1 view under the auxiliary-relation method, stream an update, and
// observe the maintained view.
func Example() {
	db, err := joinview.Open(joinview.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.ExecScript(`
		create table customer (custkey bigint, acctbal double) partition on custkey;
		create table orders (orderkey bigint, custkey bigint, totalprice double) partition on orderkey;
		create index ix_oc on orders (custkey);
		insert into orders values (100, 1, 5.0), (101, 2, 7.5);
		create view jv1 as
			select c.custkey, o.orderkey, o.totalprice
			from orders o, customer c
			where c.custkey = o.custkey
			partition on c.custkey using auxrel;
	`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(`insert into customer values (1, 10.0)`); err != nil {
		log.Fatal(err)
	}
	rows, err := db.ViewRows("jv1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rows[0])
	// Output: (1, 100, 5)
}

// ExampleDB_Begin shows a multi-statement transaction being rolled back:
// every base-relation change and all view maintenance is undone.
func ExampleDB_Begin() {
	db, err := joinview.Open(joinview.Options{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecScript(`
		create table t (k bigint, v bigint) partition on k;
		insert into t values (1, 10);
	`); err != nil {
		log.Fatal(err)
	}

	tx := db.Begin()
	if err := tx.Insert("t", []joinview.Tuple{{joinview.Int(2), joinview.Int(20)}}); err != nil {
		log.Fatal(err)
	}
	if _, err := tx.Delete("t", joinview.Eq("k", joinview.Int(1))); err != nil {
		log.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		log.Fatal(err)
	}

	r, err := db.Exec(`select count(*) from t`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Rows[0][0].GoString())
	// Output: 1
}

// ExampleDB_ExplainPipeline shows the compiled maintenance pipeline of an
// auto-strategy view: the cost model picks the auxiliary-relation method
// once, when the plan compiles, for every update of a.
func ExampleDB_ExplainPipeline() {
	db, err := joinview.Open(joinview.Options{Nodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecScript(`
		create table a (id bigint, c bigint) partition on id;
		create table b (id bigint, d bigint) partition on id;
		create index ix on b (d);
		insert into b values (1, 5), (2, 5);
		create view v as select a.id, b.id from a, b where a.c = b.d using auto;
	`); err != nil {
		log.Fatal(err)
	}
	out, err := db.ExplainPipeline("a", "insert")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
	// Output:
	// pipeline for insert into a (catalog v8, 4 stages)
	//   stage 1: base        a
	//   stage 2: auxrel      ar_a_c (on c)
	//   stage 3: globalindex gi_a_c (on c)
	//   stage 4: view        v (auto: auxrel)
}

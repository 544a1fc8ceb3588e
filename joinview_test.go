package joinview

import (
	"fmt"
	"strings"
	"testing"
)

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestFacadeSQLRoundTrip(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 4})
	_, err := db.ExecScript(`
		create table customer (custkey bigint, acctbal double) partition on custkey;
		create table orders (orderkey bigint, custkey bigint, totalprice double) partition on orderkey;
		create index ix_oc on orders (custkey);
		insert into customer values (1, 10.0), (2, 20.0);
		insert into orders values (100, 1, 5.5), (101, 2, 6.5), (102, 1, 7.5);
		create view jv1 as
			select c.custkey, c.acctbal, o.orderkey, o.totalprice
			from orders o, customer c
			where c.custkey = o.custkey
			partition on c.custkey using auxrel;
	`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`select * from jv1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("jv1 = %v", r.Rows)
	}
	if _, err := db.Exec(`insert into customer values (3, 30.0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`insert into orders values (103, 3, 9.0)`); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProgrammaticAPI(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 2})
	a := &Table{
		Name: "a",
		Schema: NewSchema(
			Column{Name: "id", Kind: KindInt},
			Column{Name: "c", Kind: KindInt},
		),
		PartitionCol: "id",
	}
	b := &Table{
		Name: "b",
		Schema: NewSchema(
			Column{Name: "id", Kind: KindInt},
			Column{Name: "d", Kind: KindInt},
			Column{Name: "note", Kind: KindString},
		),
		PartitionCol: "id",
		Indexes:      []Index{{Name: "ix_b_d", Col: "d"}},
	}
	if err := db.CreateTable(a); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("b", []Tuple{
		{Int(1), Int(10), String("x")},
		{Int(2), Int(10), String("y")},
	}); err != nil {
		t.Fatal(err)
	}
	v := &View{
		Name:   "v",
		Tables: []string{"a", "b"},
		Joins:  []JoinPred{{Left: "a", LeftCol: "c", Right: "b", RightCol: "d"}},
		Out: []OutCol{
			{Table: "a", Col: "id"}, {Table: "b", Col: "note"},
		},
		PartitionTable: "a", PartitionCol: "id",
		Strategy: StrategyGlobalIndex,
	}
	if err := db.CreateView(v); err != nil {
		t.Fatal(err)
	}
	db.ResetMetrics()
	if err := db.Insert("a", []Tuple{{Int(100), Int(10)}}); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.TotalIOs() == 0 {
		t.Error("insert should cost I/O")
	}
	rows, err := db.ViewRows("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("view rows = %v", rows)
	}
	if err := db.CheckViewConsistency("v"); err != nil {
		t.Fatal(err)
	}
	// Predicate helpers drive deletes/updates.
	if _, err := db.Delete("b", Eq("id", Int(2))); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Update("b", map[string]Value{"note": String("z")}, Gt("d", Int(5))); err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	if err := db.CheckViewConsistency("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("b", And(Eq("id", Int(1)), Lt("d", Int(100)))); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckViewConsistency("v"); err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 2 {
		t.Error("NumNodes wrong")
	}
	if err := db.RefreshStats("b"); err != nil {
		t.Fatal(err)
	}
	if db.Cluster() == nil {
		t.Error("Cluster accessor nil")
	}
}

func TestFacadeAutoStrategy(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 4})
	if _, err := db.ExecScript(`
		create table a (id bigint, c bigint) partition on id;
		create table b (id bigint, d bigint) partition on id;
		create index ix_b_d on b (d);
		insert into b values (1, 5), (2, 5), (3, 6);
		create view v as select a.id, b.id from a, b where a.c = b.d using auto;
	`); err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainPipeline("a", "insert")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "v (auto: auxrel)") {
		t.Errorf("auto view not compiled to auxrel:\n%s", out)
	}
	if _, err := db.Cluster().ExplainMaintenance("ghost", "a"); err == nil {
		t.Error("explaining a missing view should fail")
	}
	if _, err := db.Exec(`insert into a values (7, 5)`); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckViewConsistency("v"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStorageAndCheckers(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 2})
	if _, err := db.ExecScript(`
		create table a (id bigint, c bigint) partition on id;
		create table b (id bigint, d bigint) partition on id;
		create index ix_b_d on b (d);
		insert into b values (1, 5), (2, 5), (3, 6);
		create view v as select a.id, b.id from a, b where a.c = b.d using auto;
		insert into a values (7, 5), (8, 6);
	`); err != nil {
		t.Fatal(err)
	}
	rep, err := db.StorageReport()
	if err != nil {
		t.Fatal(err)
	}
	// Both a and b join on non-partitioning attributes, so auto creates
	// an AR and a GI for each: (2 + 2) rows for a, (3 + 3) for b.
	if rep.Overhead() != 10 {
		t.Errorf("overhead = %d, want 10", rep.Overhead())
	}
	if rep.OverheadValues() >= rep.Overhead()*3 {
		t.Errorf("GI entries should be narrower than AR rows: %d values", rep.OverheadValues())
	}
	if err := db.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

// A single-node cluster degenerates gracefully: every method works, all
// traffic is local.
func TestSingleNodeCluster(t *testing.T) {
	for _, strat := range []Strategy{StrategyNaive, StrategyAuxRel, StrategyGlobalIndex} {
		db := openTestDB(t, Options{Nodes: 1})
		if _, err := db.ExecScript(fmt.Sprintf(`
			create table a (id bigint, c bigint) partition on id;
			create table b (id bigint, d bigint) partition on id;
			create index ix_b_d on b (d);
			insert into b values (1, 5), (2, 5);
			create view v as select a.id, b.id from a, b where a.c = b.d using %s;
			insert into a values (7, 5);
			delete from b where id = 1;
		`, strat)); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := db.CheckAllStructures(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		rows, _ := db.ViewRows("v")
		if len(rows) != 1 {
			t.Fatalf("%v: view rows = %d, want 1", strat, len(rows))
		}
	}
}

func TestFacadeDrops(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 2})
	if _, err := db.ExecScript(`
		create table a (id bigint, c bigint) partition on id;
		create table b (id bigint, d bigint) partition on id;
		create index ix on b (d);
		insert into b values (1, 5);
		create view v as select a.id, b.id from a, b where a.c = b.d using auto;
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("b"); err == nil {
		t.Error("dropping a viewed table should fail")
	}
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("b"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	rep, err := db.StorageReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 0 {
		t.Errorf("storage should be empty after drops: %+v", rep.Entries)
	}
	if err := db.DropAuxRel("ghost"); err == nil {
		t.Error("dropping a missing AR should fail")
	}
	if err := db.DropGlobalIndex("ghost"); err == nil {
		t.Error("dropping a missing GI should fail")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with zero nodes should fail")
	}
	db, err := Open(Options{Nodes: 1, JoinAlgo: JoinIndex})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err = Open(Options{Nodes: 1, JoinAlgo: JoinSortMerge, UseChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestValueHelpers(t *testing.T) {
	if Int(3).I != 3 || Float(2.5).F != 2.5 || String("x").S != "x" || !Null().IsNull() {
		t.Error("value constructors wrong")
	}
	if Lit(Int(1)) == nil || Col("x") == nil || True == nil {
		t.Error("expr helpers nil")
	}
}

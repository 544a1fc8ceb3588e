package sql

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/types"
)

// TestJoinPathsAgree checks the three coordinator callers of exec.Join —
// QueryJoin, a SQL SELECT and the recompute reference — against the view a
// maintenance method kept up to date through inserts and deletes made
// after the view existed: all four bags must be equal.
func TestJoinPathsAgree(t *testing.T) {
	cases := []struct {
		name   string
		script string // tables, the view "v", then DML that maintains it
		spec   cluster.QuerySpec
		sel    string
		// star, when set, is a SELECT * whose column order is pinned.
		star     string
		starCols []string
	}{
		{
			name: "two-way",
			script: `
				create table customer (custkey bigint, acctbal double) partition on custkey;
				create table orders (orderkey bigint, custkey bigint, totalprice double) partition on orderkey;
				insert into customer values (1, 10.0), (2, 20.0);
				create view v as select customer.custkey, customer.acctbal, orders.orderkey, orders.totalprice
					from customer, orders where customer.custkey = orders.custkey
					partition on customer.custkey using auxrel;
				insert into orders values (100, 1, 5.0), (101, 1, 6.0), (102, 2, 7.0), (103, 9, 8.0);
				insert into customer values (3, 30.0), (9, 90.0);
				delete from orders where orderkey = 101;
			`,
			spec: cluster.QuerySpec{
				Tables: []string{"customer", "orders"},
				Joins:  []catalog.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
				Out: []catalog.OutCol{{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
					{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"}},
			},
			sel: `select customer.custkey, customer.acctbal, orders.orderkey, orders.totalprice
				from customer, orders where customer.custkey = orders.custkey`,
		},
		{
			name: "three-way chain",
			script: `
				create table customer (custkey bigint, acctbal double) partition on custkey;
				create table orders (orderkey bigint, custkey bigint, totalprice double) partition on orderkey;
				create table lineitem (orderkey bigint, partkey bigint, extendedprice double) partition on partkey;
				insert into customer values (1, 10.0), (2, 20.0), (3, 30.0);
				insert into orders values (100, 1, 5.0), (101, 1, 6.0);
				create view v as select customer.custkey, orders.orderkey, lineitem.partkey, lineitem.extendedprice
					from customer, orders, lineitem
					where customer.custkey = orders.custkey and orders.orderkey = lineitem.orderkey
					partition on lineitem.partkey using globalindex;
				insert into lineitem values (100, 7, 1.5), (100, 8, 2.5), (101, 9, 3.5), (102, 9, 4.5);
				insert into orders values (102, 2, 7.0), (103, 3, 8.0);
				delete from lineitem where partkey = 8;
			`,
			spec: cluster.QuerySpec{
				Tables: []string{"customer", "orders", "lineitem"},
				Joins: []catalog.JoinPred{
					{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
					{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
				},
				Out: []catalog.OutCol{{Table: "customer", Col: "custkey"}, {Table: "orders", Col: "orderkey"},
					{Table: "lineitem", Col: "partkey"}, {Table: "lineitem", Col: "extendedprice"}},
			},
			sel: `select customer.custkey, orders.orderkey, lineitem.partkey, lineitem.extendedprice
				from customer, orders, lineitem
				where customer.custkey = orders.custkey and orders.orderkey = lineitem.orderkey`,
			// FROM order is not join order: lineitem starts the chain, the
			// first predicate waits until orders has joined it.
			star: `select * from lineitem, orders, customer
				where customer.custkey = orders.custkey and orders.orderkey = lineitem.orderkey`,
			starCols: []string{"lineitem.orderkey", "lineitem.partkey", "lineitem.extendedprice",
				"orders.orderkey", "orders.custkey", "orders.totalprice", "customer.custkey", "customer.acctbal"},
		},
		{
			name: "cyclic triangle",
			script: `
				create table ta (pk bigint, x bigint, z bigint) partition on pk;
				create table tb (pk bigint, x bigint, y bigint) partition on pk;
				create table tc (pk bigint, y bigint, z bigint) partition on pk;
				create view v as select ta.pk, tb.pk, tc.pk from ta, tb, tc
					where ta.x = tb.x and tb.y = tc.y and tc.z = ta.z
					partition on ta.pk using naive;
				insert into ta values (1, 10, 100), (2, 10, 200), (3, 20, 100);
				insert into tb values (1, 10, 50), (2, 10, 60), (3, 20, 50);
				insert into tc values (1, 50, 100), (2, 50, 200), (3, 60, 300);
				delete from tc where pk = 2;
			`,
			spec: cluster.QuerySpec{
				Tables: []string{"ta", "tb", "tc"},
				Joins: []catalog.JoinPred{
					{Left: "ta", LeftCol: "x", Right: "tb", RightCol: "x"},
					{Left: "tb", LeftCol: "y", Right: "tc", RightCol: "y"},
					{Left: "tc", LeftCol: "z", Right: "ta", RightCol: "z"},
				},
				Out: []catalog.OutCol{{Table: "ta", Col: "pk"}, {Table: "tb", Col: "pk"}, {Table: "tc", Col: "pk"}},
			},
			sel: `select ta.pk, tb.pk, tc.pk from ta, tb, tc
				where ta.x = tb.x and tb.y = tc.y and tc.z = ta.z`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(cluster.Config{Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if _, err := ExecScript(c, tc.script); err != nil {
				t.Fatal(err)
			}
			view, err := c.ViewRows("v")
			if err != nil {
				t.Fatal(err)
			}
			if len(view) == 0 {
				t.Fatal("the view is empty: the case checks nothing")
			}
			query, _, err := c.QueryJoin(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := Exec(c, tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			recomputed, err := c.RecomputeView("v")
			if err != nil {
				t.Fatal(err)
			}
			for label, got := range map[string][]types.Tuple{"QueryJoin": query, "SELECT": sel.Rows, "RecomputeView": recomputed} {
				if err := sameBag(got, view); err != nil {
					t.Errorf("%s vs the maintained view: %v", label, err)
				}
			}
			if tc.star == "" {
				return
			}
			star, err := Exec(c, tc.star)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(star.Columns, tc.starCols) {
				t.Errorf("SELECT * columns = %v, want %v", star.Columns, tc.starCols)
			}
		})
	}
}

// A join column without its relation's name cannot be bound to a join
// step, so the FROM relations stay unjoined: an error, not a panic.
func TestSelectUnqualifiedJoinColumnFails(t *testing.T) {
	c := newDB(t)
	if _, err := Exec(c, `select * from customer c, orders o where custkey = o.custkey`); err == nil {
		t.Error("a SELECT joined only by an unqualified column should fail")
	}
}

// sameBag reports how got and want differ as multisets, or nil.
func sameBag(got, want []types.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	sorted := func(rows []types.Tuple) []types.Tuple {
		out := append([]types.Tuple(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
		return out
	}
	g, w := sorted(got), sorted(want)
	for i := range g {
		if g[i].Compare(w[i]) != 0 {
			return fmt.Errorf("row %d: %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}

package sql

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"joinview/internal/cluster"
)

// TestSQLBindsBesideDDL binds SQL statements — a SELECT over a view, a
// SELECT over the view being churned, and INSERT/DELETE binding against the
// tables those views join — while CREATE VIEW … USING AUTO / DROP VIEW runs
// beside them. Binding reads the catalog without any cluster lock, so under
// -race it must be race-free, and every statement must either succeed or,
// for the churned view, fail with its not-found error — never bind half a
// definition.
func TestSQLBindsBesideDDL(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 2, UseChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const viewDef = `create view %s as
		select c.custkey, c.acctbal, o.orderkey, o.totalprice
		from orders o, customer c
		where c.custkey = o.custkey
		partition on c.custkey using %s`
	if _, err := ExecScript(c, `
		create table customer (custkey bigint, acctbal double) partition on custkey;
		create table orders (orderkey bigint, custkey bigint, totalprice double) partition on orderkey;
		insert into customer values (1, 10.0), (2, 20.0);
		insert into orders values (100, 1, 5.0), (101, 2, 6.0);`); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(c, fmt.Sprintf(viewDef, "jv", "auxrel")); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 30; i++ {
			if _, err := Exec(c, fmt.Sprintf(viewDef, "churn", "auto")); err != nil {
				t.Error(err)
				return
			}
			if _, err := Exec(c, `drop view churn`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var key atomic.Int64
	key.Store(1_000)
	for _, stmt := range []func() error{
		func() error { _, err := Exec(c, `select * from jv`); return err },
		func() error {
			_, err := Exec(c, `select * from churn`)
			if err != nil && strings.Contains(err.Error(), `"churn"`) {
				return nil // gone between two rounds: its not-found error
			}
			return err
		},
		func() error {
			k := key.Add(1)
			if _, err := Exec(c, fmt.Sprintf(`insert into orders values (%d, 1, 1.0)`, k)); err != nil {
				return err
			}
			_, err := Exec(c, fmt.Sprintf(`delete from orders where orderkey = %d`, k))
			return err
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := stmt(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.CheckAllStructures(); err != nil {
		t.Fatal(err)
	}
}

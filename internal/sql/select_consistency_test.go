package sql

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"joinview/internal/cluster"
	"joinview/internal/fault"
)

// TestSelectSeesWholeStatements is the SQL column of the cluster package's
// read table (TestSnapshotReadersVsWriters): on every link and under every
// configuration that used to pick a different read path, a SELECT beside
// concurrent multi-row INSERTs sees each statement entirely or not at all —
// and a SELECT over two relations sees both at the same statement prefix,
// because its FROM list is read in one scope. The two-relation query joins
// a with the auxiliary relation its writers maintain with it (view columns
// have three-part names the dialect cannot put in a join condition) on a
// column every row shares, so the result's two id sets are exactly the two
// relations' contents and must be equal.
func TestSelectSeesWholeStatements(t *testing.T) {
	const writers, stmts, group = 2, 10, 8
	links := map[string]cluster.Config{
		"direct": {Nodes: 4}, "chan": {Nodes: 4, UseChannels: true}, "tcp": {Nodes: 4, UseTCP: true},
	}
	columns := map[string]func(*cluster.Config){
		"plain":          func(*cluster.Config) {},
		"durable":        func(c *cluster.Config) { c.Durability = true },
		"durable-rf2":    func(c *cluster.Config) { c.Durability, c.ReplicationFactor = true, 2 },
		"rf2-failedover": func(c *cluster.Config) { c.ReplicationFactor = 2 },
		"lockedreads":    func(c *cluster.Config) { c.LockedReads = true },
		"injector":       func(c *cluster.Config) { c.Faults = fault.New(fault.Config{Seed: 1}) },
	}
	// whole checks that ids — laid out writer*1_000_000 + stmt*1_000 + seq —
	// hold every statement entirely or not at all.
	whole := func(ids map[int64]bool) error {
		perStmt := map[int64]int{}
		for id := range ids {
			perStmt[id/1_000]++
		}
		for s, n := range perStmt {
			if n != group {
				return fmt.Errorf("statement %d: %d of %d rows visible (torn statement)", s, n, group)
			}
		}
		return nil
	}
	for lname, link := range links {
		for cname, with := range columns {
			t.Run(lname+"/"+cname, func(t *testing.T) {
				cfg := link
				with(&cfg)
				c, err := cluster.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				if _, err := ExecScript(c, `
					create table a (id bigint, c bigint) partition on id;
					create table b (id bigint, d bigint) partition on id;
					insert into b values (0, 0), (1, 0), (2, 0);
					create view jv as select a.id, a.c, b.id from a, b where a.c = b.d
						partition on a.id using auxrel;
				`); err != nil {
					t.Fatal(err)
				}
				ar, ok := c.Catalog().AuxRelOn("a", "c", nil)
				if !ok {
					t.Fatal("no auxiliary relation of a on c")
				}
				if cname == "rf2-failedover" {
					if err := c.MarkNodeDown(3); err != nil {
						t.Fatal(err)
					}
					if _, err := Exec(c, `select id from a`); err != nil { // the first read heals
						t.Fatal(err)
					}
				}
				var writersDone atomic.Bool
				errs := make([]error, writers+2)
				var wg, wwg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					wwg.Add(1)
					go func() {
						defer wg.Done()
						defer wwg.Done()
						for s := 0; s < stmts; s++ {
							vals := make([]string, group)
							for g := range vals {
								vals[g] = fmt.Sprintf("(%d, 0)", w*1_000_000+s*1_000+g)
							}
							if _, err := Exec(c, "insert into a values "+strings.Join(vals, ", ")); err != nil {
								errs[w] = err
								return
							}
						}
					}()
				}
				go func() {
					wwg.Wait()
					writersDone.Store(true)
				}()
				queries := []string{
					`select id from a`,
					`select a.id, x.id from a, ` + ar.Name + ` x where a.c = x.c`,
				}
				for q, query := range queries {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := 0; !writersDone.Load() || n < 3; n++ {
							r, err := Exec(c, query)
							if err != nil {
								errs[writers+q] = err
								return
							}
							sides := make([]map[int64]bool, len(r.Columns))
							for i := range sides {
								sides[i] = map[int64]bool{}
							}
							for _, row := range r.Rows {
								for i, v := range row {
									sides[i][v.I] = true
								}
							}
							for _, ids := range sides {
								if err := whole(ids); err != nil {
									errs[writers+q] = fmt.Errorf("%s: %w", query, err)
									return
								}
							}
							if len(sides) == 2 && len(sides[0]) != len(sides[1]) {
								errs[writers+q] = fmt.Errorf("%s: a has %d rows, %s has %d: read at different statement prefixes",
									query, len(sides[0]), ar.Name, len(sides[1]))
								return
							}
						}
					}()
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("goroutine %d: %v", i, err)
					}
				}
				if err := c.CheckViewConsistency("jv"); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

package main

import (
	"fmt"
	"strings"

	"joinview"
	"joinview/internal/types"
)

// pkCol is the position of each base table's primary-key column.
func pkCol(table string) int {
	if table == "lineitem" {
		return 1 // partkey
	}
	return 0 // custkey / orderkey
}

// loadedKeys is the half-open primary-key range of table's loaded rows,
// one row per key.
func (s scale) loadedKeys(table string) (lo, hi int64) {
	switch {
	case table == "lineitem":
		return 1, s.orders*s.linesPerOrder + 1
	case strings.HasPrefix(table, "customer"):
		return 0, s.customers
	}
	return 0, s.orders
}

// bag counts tuples by their binary encoding.
func bag(rows []joinview.Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	var buf []byte
	for _, t := range rows {
		buf = types.AppendTuple(buf[:0], t)
		m[string(buf)]++
	}
	return m
}

func bagEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// verify checks the run's outputs: every view equals its recomputed
// definition, every auxiliary structure matches its base table, sibling
// views are bag-equal, and the base tables hold exactly the loaded rows
// plus what the acknowledged statements did. It returns every failure.
func (w *workload) verify(db *joinview.DB, sc scale, gens []generator) []error {
	var errs []error
	if err := db.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("flush: %w", err))
	}
	if down := db.Degraded(); len(down) > 0 {
		errs = append(errs, fmt.Errorf("nodes %v still degraded", down))
	}
	for _, v := range w.viewNames() {
		if err := db.CheckViewConsistency(v); err != nil {
			errs = append(errs, fmt.Errorf("view %s: %w", v, err))
		}
	}
	if err := db.CheckAllStructures(); err != nil {
		errs = append(errs, fmt.Errorf("structures: %w", err))
	}
	for _, group := range w.siblings {
		var first map[string]int
		for i, v := range group {
			rows, err := db.ViewRows(v)
			if err != nil {
				errs = append(errs, fmt.Errorf("view %s: %w", v, err))
				continue
			}
			b := bag(rows)
			if i == 0 {
				first = b
			} else if !bagEqual(first, b) {
				errs = append(errs, fmt.Errorf("sibling views %s and %s differ", group[0], v))
			}
		}
	}

	delta := map[string]map[int64]int{}
	prices := map[int64]float64{}
	for _, g := range gens {
		o := g.oracle()
		for t, m := range o.delta {
			if delta[t] == nil {
				delta[t] = map[int64]int{}
			}
			for k, n := range m {
				delta[t][k] += n
			}
		}
		for k, p := range o.prices {
			prices[k] = p
		}
	}
	for _, t := range w.baseTables() {
		rows, err := db.TableRows(t)
		if err != nil {
			errs = append(errs, fmt.Errorf("table %s: %w", t, err))
			continue
		}
		lo, hi := sc.loadedKeys(t)
		want := int(hi - lo)
		for _, n := range delta[t] {
			want += n
		}
		if len(rows) != want {
			errs = append(errs, fmt.Errorf("table %s has %d rows, the acknowledged statements leave %d", t, len(rows), want))
		}
		have := make(map[int64]int, len(delta[t]))
		col := pkCol(t)
		for _, r := range rows {
			k := r[col].I
			if _, tracked := delta[t][k]; tracked {
				have[k]++
			}
			if t == "orders" {
				if p, updated := prices[k]; updated && r[2].F != p {
					errs = append(errs, fmt.Errorf("orders %d has totalprice %v, the acknowledged update set %v", k, r[2].F, p))
				}
			}
		}
		bad := 0
		for k, n := range delta[t] {
			loaded := 0
			if k >= lo && k < hi {
				loaded = 1
			}
			if have[k] != loaded+n {
				bad++
			}
		}
		if bad > 0 {
			errs = append(errs, fmt.Errorf("table %s: %d keys do not hold what the acknowledged statements left", t, bad))
		}
	}
	return errs
}

// spaceAmp is stored rows of base + AR + GI + view over base rows.
func spaceAmp(db *joinview.DB) (float64, error) {
	rep, err := db.StorageReport()
	if err != nil {
		return 0, err
	}
	var all, base int
	for _, e := range rep.Entries {
		all += e.Rows
		if e.Kind == "table" {
			base += e.Rows
		}
	}
	if base == 0 {
		return 0, fmt.Errorf("storage report lists no base rows")
	}
	return float64(all) / float64(base), nil
}

// Package exec implements the join algorithms the maintenance strategies
// and the query path use: index nested loops and sort-merge against a
// stored fragment (both metered per the paper's cost model), and the
// unmetered in-memory equijoin the coordinator evaluates ad-hoc queries,
// SQL SELECTs, view backfill and the recompute reference with.
package exec

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// IndexNestedLoops joins delta tuples against a fragment: for each delta
// tuple it looks up frag rows whose fragCol equals the delta's key column,
// emitting delta ++ fragRow. I/O is charged by the fragment's access path
// (clustered / secondary index / scan), exactly as §3.1 models the per-
// tuple join step of all three maintenance methods.
func IndexNestedLoops(delta []types.Tuple, deltaKeyIdx int, frag *storage.Fragment, fragCol string) ([]types.Tuple, error) {
	var out []types.Tuple
	for _, d := range delta {
		if deltaKeyIdx < 0 || deltaKeyIdx >= len(d) {
			return nil, fmt.Errorf("exec: delta key index %d out of range for arity %d", deltaKeyIdx, len(d))
		}
		ms, _, err := frag.LookupEqual(fragCol, d[deltaKeyIdx])
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			out = append(out, d.Concat(m.Tuple))
		}
	}
	return out, nil
}

// CeilLog returns ceil(log_base(pages)), the number of merge passes the
// external-sort cost model charges per page; it is at least 1 for any
// non-empty input (a single scan pass).
func CeilLog(base, pages int) int {
	if pages <= 0 {
		return 0
	}
	if base < 2 {
		base = 2
	}
	passes := 1
	for span := base; span < pages; span *= base {
		passes++
	}
	return passes
}

// SortMerge joins delta tuples against a fragment by the sort-merge
// algorithm of §3.2: the delta is assumed to fit in memory (assumption 3),
// and the fragment side costs
//
//   - pages(frag) I/Os when the fragment is clustered on fragCol (a single
//     ordered scan), or
//   - pages(frag) * ceil(log_mem(pages(frag))) I/Os otherwise (external
//     sort dominates).
//
// memPages is the sort memory M in pages. Results are identical to
// IndexNestedLoops; only the charged cost differs.
func SortMerge(delta []types.Tuple, deltaKeyIdx int, frag *storage.Fragment, fragCol string, memPages int) ([]types.Tuple, error) {
	ci := frag.Schema().ColIndex(fragCol)
	if ci < 0 {
		return nil, fmt.Errorf("exec: sort-merge column %q not in fragment schema %v", fragCol, frag.Schema().Names())
	}
	pages := frag.Pages()
	if col, ok := frag.Clustered(); ok && col == fragCol {
		frag.Meter().ScanPages(int64(pages))
		frag.TouchAllPages(1)
	} else {
		passes := CeilLog(memPages, pages)
		frag.Meter().SortPages(int64(pages * passes))
		frag.TouchAllPages(passes)
	}
	// Build the in-memory side from the delta, then stream the fragment.
	byKey := map[uint64][]types.Tuple{}
	for _, d := range delta {
		if deltaKeyIdx < 0 || deltaKeyIdx >= len(d) {
			return nil, fmt.Errorf("exec: delta key index %d out of range for arity %d", deltaKeyIdx, len(d))
		}
		h := d[deltaKeyIdx].Hash()
		byKey[h] = append(byKey[h], d)
	}
	var out []types.Tuple
	for _, row := range frag.All() { // layout order; cost charged above
		for _, d := range byKey[row[ci].Hash()] {
			if types.Equal(d[deltaKeyIdx], row[ci]) {
				out = append(out, d.Concat(row))
			}
		}
	}
	return out, nil
}

// HashJoin joins two in-memory tuple sets on left[leftIdx] == right[rightIdx],
// emitting left ++ right in left order. It is unmetered: it is Join's step,
// whose callers charge (or deliberately do not charge) the reads of its
// inputs themselves.
func HashJoin(left []types.Tuple, leftIdx int, right []types.Tuple, rightIdx int) ([]types.Tuple, error) {
	build := map[uint64][]types.Tuple{}
	for _, r := range right {
		if rightIdx < 0 || rightIdx >= len(r) {
			return nil, fmt.Errorf("exec: right key index %d out of range for arity %d", rightIdx, len(r))
		}
		h := r[rightIdx].Hash()
		build[h] = append(build[h], r)
	}
	var out []types.Tuple
	for _, l := range left {
		if leftIdx < 0 || leftIdx >= len(l) {
			return nil, fmt.Errorf("exec: left key index %d out of range for arity %d", leftIdx, len(l))
		}
		for _, r := range build[l[leftIdx].Hash()] {
			if types.Equal(l[leftIdx], r[rightIdx]) {
				out = append(out, l.Concat(r))
			}
		}
	}
	return out, nil
}

// Rel is one input of Join: the binding its join predicates name it by,
// its schema with every column renamed "binding.col", and its rows.
type Rel struct {
	Binding string
	Schema  *types.Schema
	Rows    []types.Tuple
}

// Join evaluates the equijoin of rels over preds as a left-deep chain of
// HashJoin: it starts at rels[0] and each step joins the relation the
// predicate catalog.NextJoin picks. It returns the joined rows, their schema
// (the inputs' schemas concatenated in join order) and the predicates no
// step used — the extra edges of a cyclic join graph — for the caller to
// filter by. preds is left unmodified.
func Join(rels []Rel, preds []catalog.JoinPred) ([]types.Tuple, *types.Schema, []catalog.JoinPred, error) {
	if len(rels) == 0 {
		return nil, nil, nil, fmt.Errorf("exec: join needs at least one relation")
	}
	byBinding := make(map[string]Rel, len(rels))
	for _, r := range rels {
		if _, dup := byBinding[r.Binding]; dup {
			return nil, nil, nil, fmt.Errorf("exec: relation %q joined twice", r.Binding)
		}
		byBinding[r.Binding] = r
	}
	rows, schema := rels[0].Rows, rels[0].Schema
	covered := map[string]bool{rels[0].Binding: true}
	rest := append([]catalog.JoinPred(nil), preds...)
	for len(covered) < len(rels) {
		j, next, r, ok := catalog.NextJoin(rest, covered)
		if !ok {
			return nil, nil, nil, fmt.Errorf("exec: join graph disconnected (cartesian products unsupported)")
		}
		rest = r
		right, ok := byBinding[next]
		if !ok {
			return nil, nil, nil, fmt.Errorf("exec: join predicate names %q, which is not an input", next)
		}
		from := j.Other(next)
		leftCol, rightCol := from+"."+j.ColOf(from), next+"."+j.ColOf(next)
		li, ri := schema.ColIndex(leftCol), right.Schema.ColIndex(rightCol)
		if li < 0 || ri < 0 {
			return nil, nil, nil, fmt.Errorf("exec: join column %s or %s not found", leftCol, rightCol)
		}
		var err error
		if rows, err = HashJoin(rows, li, right.Rows, ri); err != nil {
			return nil, nil, nil, err
		}
		schema = schema.Concat(right.Schema)
		covered[next] = true
	}
	return rows, schema, rest, nil
}

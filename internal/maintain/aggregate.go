package maintain

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// Aggregate join views (the companion work of the paper's authors): the
// view stores one row per group — the GROUP BY columns followed by COUNT
// and SUM aggregates. A join delta folds into signed per-group deltas
// which the owning nodes apply: groups appear when their first member
// arrives and disappear when the count returns to zero.

// AggGroup is one group's signed delta.
type AggGroup struct {
	// Key holds the group-by column values.
	Key types.Tuple
	// Deltas holds one signed value per aggregate column (count deltas
	// are Int; sum deltas carry the measure's kind).
	Deltas types.Tuple
}

// FoldAggDeltas folds raw join rows (in the view's maintenance projection:
// group columns first, then sum measures) into per-group deltas, negated
// for deletes. Group output order is first-appearance, so execution stays
// deterministic.
func FoldAggDeltas(v *catalog.View, rows []types.Tuple, op Op) ([]AggGroup, error) {
	if !v.IsAggregate() {
		return nil, fmt.Errorf("maintain: view %q is not an aggregate view", v.Name)
	}
	proj := v.MaintenanceProjection()
	// Map each sum aggregate to its measure position in the projection.
	sumPos := make([]int, len(v.Aggs))
	for i, a := range v.Aggs {
		sumPos[i] = -1
		if a.Func != "sum" {
			continue
		}
		q := a.Table + "." + a.Col
		for j, name := range proj {
			if name == q {
				sumPos[i] = j
				break
			}
		}
		if sumPos[i] < 0 {
			return nil, fmt.Errorf("maintain: view %q: measure %s missing from projection", v.Name, q)
		}
	}
	sign := int64(1)
	if op == OpDelete {
		sign = -1
	}
	nGroup := len(v.Out)
	byKey := map[uint64]*AggGroup{}
	var order []uint64
	for _, row := range rows {
		if len(row) < nGroup {
			return nil, fmt.Errorf("maintain: view %q: delta row arity %d below group arity %d", v.Name, len(row), nGroup)
		}
		key := row[:nGroup]
		h := types.Tuple(key).Hash()
		g, ok := byKey[h]
		if !ok {
			g = &AggGroup{Key: types.Tuple(key).Clone(), Deltas: make(types.Tuple, len(v.Aggs))}
			for i, a := range v.Aggs {
				if a.Func == "count" {
					g.Deltas[i] = types.Int(0)
				} else {
					// Zero of the aggregate column's kind.
					kind := v.Schema.Cols[nGroup+i].Kind
					if kind == types.KindFloat {
						g.Deltas[i] = types.Float(0)
					} else {
						g.Deltas[i] = types.Int(0)
					}
				}
			}
			byKey[h] = g
			order = append(order, h)
		}
		for i, a := range v.Aggs {
			if a.Func == "count" {
				g.Deltas[i] = types.Int(g.Deltas[i].I + sign)
				continue
			}
			m := row[sumPos[i]]
			if m.IsNull() {
				continue // SQL sum skips NULLs
			}
			var err error
			g.Deltas[i], err = addSigned(g.Deltas[i], m, sign)
			if err != nil {
				return nil, fmt.Errorf("maintain: view %q: %w", v.Name, err)
			}
		}
	}
	out := make([]AggGroup, 0, len(order))
	for _, h := range order {
		out = append(out, *byKey[h])
	}
	return out, nil
}

// addSigned returns acc + sign*m, preserving the accumulator's kind.
func addSigned(acc, m types.Value, sign int64) (types.Value, error) {
	switch acc.K {
	case types.KindInt:
		switch m.K {
		case types.KindInt:
			return types.Int(acc.I + sign*m.I), nil
		case types.KindFloat:
			return types.Float(float64(acc.I) + float64(sign)*m.F), nil
		}
	case types.KindFloat:
		switch m.K {
		case types.KindInt:
			return types.Float(acc.F + float64(sign*m.I)), nil
		case types.KindFloat:
			return types.Float(acc.F + float64(sign)*m.F), nil
		}
	}
	return types.Value{}, fmt.Errorf("cannot add %v to accumulator %v", m, acc)
}

// applyAggToView routes folded group deltas to the view's partitions and
// applies them.
func applyAggToView(env Env, v *catalog.View, groups []AggGroup, op Op) error {
	if len(groups) == 0 {
		return nil
	}
	partCol := v.PartitionQualified()
	idx := v.Schema.ColIndex(partCol)
	if idx < 0 || idx >= len(v.Out) {
		return fmt.Errorf("maintain: aggregate view %q must be partitioned on a group column", v.Name)
	}
	_ = op // sign already folded into the deltas
	part := env.Cat.Partitioner()
	buckets := make([][]AggGroup, part.Nodes())
	for _, g := range groups {
		n := part.NodeFor(g.Key[idx])
		buckets[n] = append(buckets[n], g)
	}
	ep, fl := env.stamps(v.Name)
	var calls []netsim.Call
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		req := node.AggApply{
			Frag:     v.Name,
			HintCol:  partCol,
			GroupLen: len(v.Out),
			CountPos: v.CountIndex() - len(v.Out),
			Epoch:    ep,
			GCFloor:  fl,
		}
		for _, g := range bucket {
			req.Keys = append(req.Keys, g.Key)
			req.Deltas = append(req.Deltas, g.Deltas)
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: req})
	}
	if _, err := env.scatter(calls); err != nil {
		return fmt.Errorf("maintain: applying aggregate delta to %q: %w", v.Name, err)
	}
	return nil
}

// FoldAggRows materializes full group rows (key ++ aggregates) from raw
// join rows — the from-scratch evaluation used by view backfill and the
// consistency checker.
func FoldAggRows(v *catalog.View, rows []types.Tuple) ([]types.Tuple, error) {
	groups, err := FoldAggDeltas(v, rows, OpInsert)
	if err != nil {
		return nil, err
	}
	out := make([]types.Tuple, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.Key.Concat(g.Deltas))
	}
	return out, nil
}

// Package maintain executes view-maintenance plans: it is the engine of
// the paper's three methods. Given a delta on a base relation and a plan
// from internal/plan, it ships the delta across the cluster — broadcasting
// (naive), hash-routing (auxiliary relation) or via global-index lookups —
// joins it step by step against the other base relations' fragments or
// auxiliary structures, projects the result to the view's output columns,
// and applies it to the view's partitions.
//
// All orchestration runs at the coordinator; nodes only execute local
// operations. Message accounting passes the logical source node as `from`
// so the transport's SEND counters match the paper's message-flow figures.
package maintain

import (
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/gindex"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/types"
)

// Env bundles what the executor needs from the cluster. Cat is the
// statement's catalog snapshot; its partitioner routes every fan-out.
type Env struct {
	T   netsim.Transport
	Cat *catalog.Catalog
	// Parallel dispatches per-node fan-outs concurrently through the
	// scatter-gather dispatcher (results still gather in node order, so
	// metric traces are unchanged). Must stay false on the Direct
	// transport, whose handlers are not goroutine-safe.
	Parallel bool
	// WriteEpoch and GCFloor, when set, stamp view mutations for MVCC
	// snapshot reads: WriteEpoch(frag) is the epoch the current statement
	// writes at, GCFloor(frag) the version-log truncation floor piggybacked
	// on the request. Nil means unversioned (epoch 0 on the wire).
	WriteEpoch func(frag string) uint64
	GCFloor    func(frag string) uint64
}

// stamps returns the (epoch, gc floor) pair for one fragment, zero when the
// env is unversioned.
func (env Env) stamps(frag string) (uint64, uint64) {
	var ep, fl uint64
	if env.WriteEpoch != nil {
		ep = env.WriteEpoch(frag)
	}
	if env.GCFloor != nil {
		fl = env.GCFloor(frag)
	}
	return ep, fl
}

// scatter runs the calls through the env's transport and dispatch policy.
func (env Env) scatter(calls []netsim.Call) ([]any, error) {
	return netsim.ScatterCalls(env.T, env.Parallel, calls)
}

// Op distinguishes delta directions.
type Op uint8

// Delta operations.
const (
	OpInsert Op = iota
	OpDelete
)

func (o Op) String() string {
	if o == OpInsert {
		return "insert"
	}
	return "delete"
}

// StepTrace records what one plan step did, for experiments that verify
// "the work needs to be done at (i) only one node ... (iii) all the nodes".
type StepTrace struct {
	Table        string
	Via          plan.Via
	NodesProbed  int // nodes that executed a probe/fetch for this step
	TuplesJoined int // intermediate size after the step
}

// Result reports a maintenance execution.
type Result struct {
	// ViewTuples is the number of view-schema tuples produced (the
	// paper's N per delta tuple, summed over the delta).
	ViewTuples int
	Steps      []StepTrace
}

// ComputeViewDelta runs plan p over delta tuples (in the updated table's
// base schema) and returns the view-schema tuples the delta induces, plus
// a trace. algo selects the per-node join algorithm (AlgoAuto lets each
// node apply the §3.2 index/sort-merge crossover using the plan's fan-out
// estimates).
func ComputeViewDelta(env Env, p *plan.Plan, delta []types.Tuple, algo node.Algo) ([]types.Tuple, *Result, error) {
	if len(delta) == 0 {
		return nil, &Result{}, nil
	}
	cur := delta
	// The plan carries every intermediate schema and join-key position,
	// resolved once at build time; execution only walks them.
	curSchema := p.DeltaSchema
	var err error
	if curSchema == nil {
		updated, terr := env.Cat.Table(p.Table)
		if terr != nil {
			return nil, nil, terr
		}
		curSchema = updated.Schema.Prefixed(p.Table)
	}
	res := &Result{}

	for _, step := range p.Steps {
		var next []types.Tuple
		var trace StepTrace
		next, trace, err = ExecStep(env, step, cur, curSchema, algo)
		if err != nil {
			return nil, nil, err
		}
		curSchema = StepOutSchema(step, curSchema)
		cur = next
		res.Steps = append(res.Steps, trace)
		if len(cur) == 0 {
			break // no matches anywhere: the view delta is empty
		}
	}

	out, err := FinishDelta(p, cur, curSchema)
	if err != nil {
		return nil, nil, err
	}
	res.ViewTuples = len(out)
	return out, res, nil
}

// ExecStep runs one delta-join step over the current intermediate (cur,
// described by curSchema) and returns the joined result plus its trace.
// It is the unit the shared-DAG executor memoizes: a step's output depends
// only on its input and the step's structural identity (plan.Step.ChainKey),
// never on which view's plan it came from.
func ExecStep(env Env, step plan.Step, cur []types.Tuple, curSchema *types.Schema, algo node.Algo) ([]types.Tuple, StepTrace, error) {
	keyIdx := step.DeltaKey
	if step.OutSchema == nil {
		keyIdx = curSchema.ColIndex(step.DeltaCol)
	}
	if keyIdx < 0 {
		return nil, StepTrace{}, fmt.Errorf("maintain: intermediate schema %v lacks %s", curSchema.Names(), step.DeltaCol)
	}
	var next []types.Tuple
	var probed int
	var err error
	switch step.Via {
	case plan.ViaBroadcast:
		next, probed, err = broadcastStep(env, step, cur, keyIdx, algo)
	case plan.ViaRoute:
		next, probed, err = routeStep(env, step, cur, keyIdx, algo)
	case plan.ViaGlobalIndex:
		next, probed, err = globalIndexStep(env, step, cur, keyIdx)
	default:
		err = fmt.Errorf("maintain: unknown step mode %v", step.Via)
	}
	if err != nil {
		return nil, StepTrace{}, fmt.Errorf("maintain: step %s (%v): %w", step.Table, step.Via, err)
	}
	return next, StepTrace{
		Table:        step.Table,
		Via:          step.Via,
		NodesProbed:  probed,
		TuplesJoined: len(next),
	}, nil
}

// StepOutSchema returns the intermediate schema after the step, using the
// plan-time precompute when present.
func StepOutSchema(step plan.Step, curSchema *types.Schema) *types.Schema {
	if step.OutSchema != nil {
		return step.OutSchema
	}
	return curSchema.Concat(step.FragSchema.Prefixed(step.Table))
}

// FinishDelta turns a fully joined intermediate into view-schema tuples:
// residual join predicates (the extra edges of a cyclic join graph) filter
// the rows, then the view's maintenance projection shapes them. This is
// the per-view tail of a maintenance plan — the part a shared chain result
// cannot cover.
func FinishDelta(p *plan.Plan, cur []types.Tuple, curSchema *types.Schema) ([]types.Tuple, error) {
	if len(cur) == 0 {
		// A chain that found no partners stops early, so curSchema may
		// lack the columns the residual predicates name.
		return nil, nil
	}
	cur, err := FilterResidual(cur, curSchema, p.Residual)
	if err != nil {
		return nil, err
	}

	// Project the final intermediate onto the maintenance columns (output
	// columns; plus sum measures for aggregate views). Apply builds each
	// projected tuple fresh (values are immutable), so the output needs no
	// defensive clone.
	proj := expr.NewProjection(p.View.MaintenanceProjection())
	out := make([]types.Tuple, 0, len(cur))
	for _, t := range cur {
		pt, err := proj.Apply(curSchema, t)
		if err != nil {
			return nil, fmt.Errorf("maintain: projecting to view %q: %w", p.View.Name, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// FilterResidual keeps the tuples satisfying every residual equijoin
// predicate; schema column names are the qualified "table.col" form.
func FilterResidual(tuples []types.Tuple, schema *types.Schema, residual []catalog.JoinPred) ([]types.Tuple, error) {
	if len(residual) == 0 {
		return tuples, nil
	}
	type pair struct{ l, r int }
	idx := make([]pair, len(residual))
	for i, j := range residual {
		l := schema.ColIndex(j.Left + "." + j.LeftCol)
		r := schema.ColIndex(j.Right + "." + j.RightCol)
		if l < 0 || r < 0 {
			return nil, fmt.Errorf("maintain: residual predicate %s.%s = %s.%s not resolvable in %v",
				j.Left, j.LeftCol, j.Right, j.RightCol, schema.Names())
		}
		idx[i] = pair{l, r}
	}
	out := tuples[:0:0]
	for _, t := range tuples {
		ok := true
		for _, p := range idx {
			if !types.Equal(t[p.l], t[p.r]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// broadcastStep ships the whole intermediate to every node (naive method,
// Figure 2): each node probes its local base fragment.
func broadcastStep(env Env, step plan.Step, cur []types.Tuple, keyIdx int, algo node.Algo) ([]types.Tuple, int, error) {
	resps, err := env.T.Broadcast(netsim.Coordinator, node.Probe{
		Frag:       step.Frag,
		FragCol:    step.FragCol,
		Delta:      cur,
		DeltaKey:   keyIdx,
		Algo:       algo,
		FanoutHint: step.Fanout,
	})
	if err != nil {
		return nil, 0, err
	}
	return gatherProbed(resps), len(resps), nil
}

// gatherProbed concatenates the Probed responses into one exactly-sized
// slice.
func gatherProbed(resps []any) []types.Tuple {
	total := 0
	for _, r := range resps {
		total += len(r.(node.Probed).Tuples)
	}
	out := make([]types.Tuple, 0, total)
	for _, r := range resps {
		out = append(out, r.(node.Probed).Tuples...)
	}
	return out
}

// routeStep hash-routes each intermediate tuple to the node owning its
// join-attribute value (auxiliary-relation method, Figure 4, or a base
// relation partitioned on the join attribute, Figure 1) and probes there.
func routeStep(env Env, step plan.Step, cur []types.Tuple, keyIdx int, algo node.Algo) ([]types.Tuple, int, error) {
	buckets := env.Cat.Partitioner().SpreadIndex(keyIdx, cur)
	var calls []netsim.Call
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: node.Probe{
			Frag:       step.Frag,
			FragCol:    step.FragCol,
			Delta:      bucket,
			DeltaKey:   keyIdx,
			Algo:       algo,
			FanoutHint: step.Fanout,
		}})
	}
	resps, err := env.scatter(calls)
	if err != nil {
		return nil, 0, err
	}
	return gatherProbed(resps), len(calls), nil
}

// globalIndexStep implements Figure 6: per intermediate tuple, route to the
// global-index home node, look up global row ids, and fetch-join at the K
// nodes holding matches.
func globalIndexStep(env Env, step plan.Step, cur []types.Tuple, keyIdx int) ([]types.Tuple, int, error) {
	// One scatter task per delta tuple: the lookup-then-fetch chain of a
	// tuple is inherently sequential (the fetch targets come out of the
	// lookup), but distinct tuples are independent. Per-tuple results and
	// probed-node sets land in delta order, so the gathered output is
	// identical to the serial loop's.
	outs := make([][]types.Tuple, len(cur))
	probed := make([][]int, len(cur))
	err := netsim.ScatterFunc(env.Parallel, len(cur), func(i int) error {
		d := cur[i]
		home := env.Cat.Partitioner().NodeFor(d[keyIdx])
		resp, err := env.T.Call(netsim.Coordinator, home, node.GILookup{GI: step.GI, Val: d[keyIdx]})
		if err != nil {
			return err
		}
		groups := gindex.GroupByNode(resp.(node.GIRows).IDs)
		for _, g := range groups {
			// The delta tuple and row-id list travel from the GI home
			// node to the owning node (the paper's K SENDs).
			fresp, err := env.T.Call(home, g.Node, node.FetchJoin{
				Frag:    step.Frag,
				FragCol: step.FragCol,
				Rows:    g.Rows,
				Delta:   d,
			})
			if err != nil {
				return err
			}
			outs[i] = append(outs[i], fresp.(node.Probed).Tuples...)
			probed[i] = append(probed[i], g.Node)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var out []types.Tuple
	probedNodes := map[int]bool{}
	for i := range cur {
		out = append(out, outs[i]...)
		for _, n := range probed[i] {
			probedNodes[n] = true
		}
	}
	return out, len(probedNodes), nil
}

// ApplyToView routes maintenance tuples to the view's partitions and
// applies them: plain views insert or delete the rows (bag semantics: a
// delete removes one stored instance per tuple); aggregate views fold the
// rows into signed group deltas first.
func ApplyToView(env Env, v *catalog.View, tuples []types.Tuple, op Op) error {
	if len(tuples) == 0 {
		return nil
	}
	if v.IsAggregate() {
		groups, err := FoldAggDeltas(v, tuples, op)
		if err != nil {
			return err
		}
		return applyAggToView(env, v, groups, op)
	}
	partCol := v.PartitionQualified()
	idx := v.Schema.ColIndex(partCol)
	if idx < 0 {
		return fmt.Errorf("maintain: view %q schema lacks partition column %s", v.Name, partCol)
	}
	buckets := env.Cat.Partitioner().SpreadIndex(idx, tuples)
	ep, fl := env.stamps(v.Name)
	var calls []netsim.Call
	for n, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		var req any
		if op == OpInsert {
			req = node.Insert{Frag: v.Name, Tuples: bucket, Epoch: ep, GCFloor: fl}
		} else {
			req = node.DeleteMatch{Frag: v.Name, HintCol: partCol, Tuples: bucket, Epoch: ep, GCFloor: fl}
		}
		calls = append(calls, netsim.Call{From: netsim.Coordinator, To: n, Req: req})
	}
	if _, err := env.scatter(calls); err != nil {
		return fmt.Errorf("maintain: applying %v to view %q: %w", op, v.Name, err)
	}
	return nil
}

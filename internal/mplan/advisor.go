package mplan

import (
	"fmt"
	"sort"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/maintain"
	"joinview/internal/plan"
	"joinview/internal/stats"
)

// The materialization advisor: given the current schema, view set and
// statistics, which auxiliary relations and global indexes are worth
// materializing? Each candidate is priced on a shadow catalog under the
// shared-DAG cost model (cost.Shared via Plan.SharedTW): its benefit
// is the drop in modeled maintenance workload across a uniform update
// round — one single-tuple insert into every base table — and its cost is
// the structure's own upkeep, which SharedTW already charges on updates of
// the structure's table. Selection is greedy: accept the candidate with
// the largest marginal saving, reprice, repeat until nothing helps.
//
// The advisor only reports; it never mutates the live catalog. Shadow
// catalogs hold copies of every mutable object, because catalog
// registration (AddView, AddAuxRel, AddGlobalIndex) writes derived fields
// into the structs it is handed.

// AdviceItem is one recommended auxiliary structure.
type AdviceItem struct {
	// Exactly one of AuxRel / GlobalIndex is set.
	AuxRel      *catalog.AuxRel
	GlobalIndex *catalog.GlobalIndex
	// ForViews are the views whose maintenance plans would use the
	// structure, sorted.
	ForViews []string
	// SavedTW is the marginal modeled workload reduction (I/O units per
	// uniform update round) when the item was accepted, after everything
	// recommended before it.
	SavedTW float64
}

// Name returns the recommended structure's name.
func (it *AdviceItem) Name() string {
	if it.AuxRel != nil {
		return it.AuxRel.Name
	}
	return it.GlobalIndex.Name
}

// Kind returns "auxrel" or "globalindex".
func (it *AdviceItem) Kind() string {
	if it.AuxRel != nil {
		return "auxrel"
	}
	return "globalindex"
}

// Advice is the advisor's report.
type Advice struct {
	// Items in acceptance order (largest marginal saving first).
	Items []AdviceItem
	// BaselineTW / AdvisedTW are the modeled workloads of one uniform
	// update round before and after materializing every item.
	BaselineTW float64
	AdvisedTW  float64
}

// Describe renders the report for tooling.
func (a *Advice) Describe() string {
	var sb strings.Builder
	if len(a.Items) == 0 {
		sb.WriteString("materialization advisor: nothing to add — current structures already minimize modeled TW\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "materialization advisor: %d recommendations (modeled TW %.0f -> %.0f per update round)\n",
		len(a.Items), a.BaselineTW, a.AdvisedTW)
	for i := range a.Items {
		it := &a.Items[i]
		detail := ""
		if it.AuxRel != nil {
			detail = fmt.Sprintf("%s on %s.%s (cols %s)", it.AuxRel.Name, it.AuxRel.Table,
				it.AuxRel.PartitionCol, strings.Join(it.AuxRel.Cols, ","))
		} else {
			detail = fmt.Sprintf("%s on %s.%s", it.GlobalIndex.Name, it.GlobalIndex.Table, it.GlobalIndex.Col)
		}
		fmt.Fprintf(&sb, "  %d. %-11s %s — saves %.0f TW, used by %d views\n",
			i+1, it.Kind(), detail, it.SavedTW, len(it.ForViews))
	}
	return sb.String()
}

// candidate is one not-yet-materialized structure some view could use.
type candidate struct {
	ar    *catalog.AuxRel
	gi    *catalog.GlobalIndex
	views map[string]bool
}

func (cd *candidate) forViews() []string {
	out := make([]string, 0, len(cd.views))
	for v := range cd.views {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Advise prices every missing auxiliary structure the current views could
// use and returns the greedily chosen set that minimizes the modeled
// shared-DAG maintenance workload on the catalog's installed partition map.
func Advise(cat *catalog.Catalog, st *stats.Stats) (*Advice, error) {
	shadow, err := shadowCatalog(cat)
	if err != nil {
		return nil, err
	}
	baseline, err := workloadTW(shadow, st)
	if err != nil {
		return nil, err
	}
	cands, err := enumerateCandidates(cat)
	if err != nil {
		return nil, err
	}
	adv := &Advice{BaselineTW: baseline, AdvisedTW: baseline}
	for len(cands) > 0 {
		bestIdx := -1
		bestTW := adv.AdvisedTW
		for i := range cands {
			trial, err := shadowCatalog(shadow)
			if err != nil {
				return nil, err
			}
			if err := addCandidate(trial, &cands[i]); err != nil {
				continue // infeasible in this state (e.g. name taken)
			}
			tw, err := workloadTW(trial, st)
			if err != nil {
				continue
			}
			// Strict improvement beyond float noise, ties broken by
			// enumeration order (sorted, so deterministic).
			if tw < bestTW-1e-6 {
				bestIdx, bestTW = i, tw
			}
		}
		if bestIdx < 0 {
			break
		}
		cd := cands[bestIdx]
		if err := addCandidate(shadow, &cd); err != nil {
			return nil, err
		}
		adv.Items = append(adv.Items, AdviceItem{
			AuxRel:      cd.ar,
			GlobalIndex: cd.gi,
			ForViews:    cd.forViews(),
			SavedTW:     adv.AdvisedTW - bestTW,
		})
		adv.AdvisedTW = bestTW
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
	}
	return adv, nil
}

// workloadTW prices one uniform update round — a single-tuple insert into
// every base table — under the shared-DAG executor's cost model.
func workloadTW(cat *catalog.Catalog, st *stats.Stats) (float64, error) {
	total := 0.0
	for _, tn := range cat.Tables() {
		mp, err := Compile(cat, st, tn, maintain.OpInsert)
		if err != nil {
			return 0, err
		}
		shared, _ := mp.SharedTW(1)
		total += shared
	}
	return total, nil
}

// enumerateCandidates lists the auxiliary structures the views' strategies
// could use but the catalog lacks. AR candidates for the same (table, join
// attribute) are merged by unioning their column sets, mirroring the
// covering-reuse dedup view creation performs.
func enumerateCandidates(cat *catalog.Catalog) ([]candidate, error) {
	byKey := map[string]*candidate{}
	var keys []string
	for _, vn := range cat.Views() {
		v, err := cat.View(vn)
		if err != nil {
			return nil, err
		}
		arSpecs, err := plan.AuxRelSpecs(cat, v)
		if err != nil {
			return nil, err
		}
		for i := range arSpecs {
			spec := arSpecs[i]
			if _, ok := cat.AuxRelOn(spec.Table, spec.PartitionCol, spec.Cols); ok {
				continue
			}
			key := "ar:" + spec.Table + ":" + spec.PartitionCol
			cd, ok := byKey[key]
			if !ok {
				cd = &candidate{ar: &spec, views: map[string]bool{}}
				byKey[key] = cd
				keys = append(keys, key)
			} else {
				cd.ar.Cols = unionCols(cat, spec.Table, cd.ar.Cols, spec.Cols)
			}
			cd.views[vn] = true
		}
		giSpecs, err := plan.GlobalIndexSpecs(cat, v)
		if err != nil {
			return nil, err
		}
		for i := range giSpecs {
			spec := giSpecs[i]
			if _, ok := cat.GlobalIndexOn(spec.Table, spec.Col); ok {
				continue
			}
			key := "gi:" + spec.Table + ":" + spec.Col
			cd, ok := byKey[key]
			if !ok {
				cd = &candidate{gi: &spec, views: map[string]bool{}}
				byKey[key] = cd
				keys = append(keys, key)
			}
			cd.views[vn] = true
		}
	}
	sort.Strings(keys)
	out := make([]candidate, 0, len(keys))
	for _, k := range keys {
		cd := byKey[k]
		if cd.ar != nil {
			// The derived name may be taken by a narrower AR; suffix like
			// view creation does.
			base := cd.ar.Name
			for n := 2; ; n++ {
				if _, err := cat.AuxRel(cd.ar.Name); err != nil {
					break
				}
				cd.ar.Name = fmt.Sprintf("%s_%d", base, n)
			}
			cd.ar.AutoCreated = true
		}
		out = append(out, *cd)
	}
	return out, nil
}

// unionCols unions two column subsets of one table, in base-schema order.
func unionCols(cat *catalog.Catalog, table string, a, b []string) []string {
	t, err := cat.Table(table)
	if err != nil {
		return a
	}
	want := map[string]bool{}
	for _, c := range a {
		want[c] = true
	}
	for _, c := range b {
		want[c] = true
	}
	var out []string
	for _, c := range t.Schema.Names() {
		if want[c] {
			out = append(out, c)
		}
	}
	return out
}

// addCandidate registers copies of the candidate's structures on a shadow
// catalog.
func addCandidate(sc *catalog.Catalog, cd *candidate) error {
	if cd.ar != nil {
		ar := *cd.ar
		ar.Cols = append([]string(nil), cd.ar.Cols...)
		return sc.AddAuxRel(&ar)
	}
	gi := *cd.gi
	return sc.AddGlobalIndex(&gi)
}

// shadowCatalog clones a catalog's metadata for what-if pricing: fresh
// structs for every object the registration paths mutate, shared immutable
// innards (schemas, join lists), and the installed partition map.
func shadowCatalog(cat *catalog.Catalog) (*catalog.Catalog, error) {
	sc := catalog.New()
	if pm, ok := cat.PartitionMap(); ok {
		sc.SetPartitionMap(pm)
	}
	tables := cat.Tables()
	for _, tn := range tables {
		t, err := cat.Table(tn)
		if err != nil {
			return nil, err
		}
		tc := *t
		tc.Indexes = append([]catalog.Index(nil), t.Indexes...)
		if err := sc.AddTable(&tc); err != nil {
			return nil, err
		}
	}
	for _, tn := range tables {
		for _, a := range cat.AuxRelsFor(tn) {
			ac := *a
			ac.Cols = append([]string(nil), a.Cols...)
			if err := sc.AddAuxRel(&ac); err != nil {
				return nil, err
			}
		}
		for _, g := range cat.GlobalIndexesFor(tn) {
			gc := *g
			if err := sc.AddGlobalIndex(&gc); err != nil {
				return nil, err
			}
		}
	}
	for _, vn := range cat.Views() {
		v, err := cat.View(vn)
		if err != nil {
			return nil, err
		}
		vc := *v
		vc.Out = append([]catalog.OutCol(nil), v.Out...)
		vc.Aggs = append([]catalog.AggSpec(nil), v.Aggs...)
		if err := sc.AddView(&vc); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// Package catalog holds the metadata of the parallel RDBMS: base tables,
// secondary indexes, join views, auxiliary relations and global indexes.
// It is pure metadata — storage lives in the node fragments — plus the
// validation and join-graph helpers the planner and the maintenance
// strategies share.
package catalog

import (
	"fmt"
	"maps"
	"sort"

	"joinview/internal/expr"
	"joinview/internal/hashpart"
	"joinview/internal/types"
)

// Table describes a base relation.
type Table struct {
	Name   string
	Schema *types.Schema
	// PartitionCol is the attribute tuples are hash-partitioned on across
	// nodes (Teradata's primary index).
	PartitionCol string
	// ClusterCol is the attribute each local fragment is clustered on.
	// In Teradata this must equal PartitionCol; the simulator also allows
	// a different column so the paper's "naive method with clustered
	// index J_B on the join attribute" variant can actually be run
	// (the paper could not test it: "clustered indices must be on
	// partitioning attributes"). Empty means heap layout.
	ClusterCol string
	// Indexes are non-clustered local secondary indexes.
	Indexes []Index
}

// Index is a non-clustered local secondary index on one column.
type Index struct {
	Name string
	Col  string
}

// HasIndexOn reports whether the table declares a secondary index on col.
func (t *Table) HasIndexOn(col string) bool {
	for _, ix := range t.Indexes {
		if ix.Col == col {
			return true
		}
	}
	return false
}

// GlobalIndex describes a global index on one attribute of a base table
// (§2.1.3). The index is hash-partitioned on the indexed attribute.
type GlobalIndex struct {
	Name  string
	Table string
	Col   string
	// DistClustered records whether the base relation is locally clustered
	// on Col at every node ("distributed clustered").
	DistClustered bool
}

// AuxRel describes an auxiliary relation (§2.1.2): a selection and
// projection of a base relation, re-partitioned (and locally clustered) on
// a join attribute: AR_R = π(σ(R)) partitioned on PartitionCol.
type AuxRel struct {
	Name  string
	Table string
	// PartitionCol is the join attribute the AR is partitioned and
	// clustered on. It must be included in Cols.
	PartitionCol string
	// Cols is the projected column subset, in base-schema order; empty
	// means a full copy.
	Cols []string
	// Where optionally restricts which base tuples appear in the AR
	// (storage minimization per Quass et al.; nil keeps all tuples).
	Where expr.Expr
	// Schema is the derived AR schema.
	Schema *types.Schema
	// AutoCreated marks an AR materialized implicitly for a view
	// (EnsureStructures) rather than by an explicit CREATE. Only
	// auto-created ARs are dropped when the last view referencing them
	// goes away; user-created ones always outlive their views.
	AutoCreated bool
}

// Covers reports whether the AR retains all of the named base columns.
func (a *AuxRel) Covers(cols []string) bool {
	for _, c := range cols {
		if a.Schema.ColIndex(c) < 0 {
			return false
		}
	}
	return true
}

// Strategy selects a view-maintenance method.
type Strategy uint8

// Maintenance strategies. Auto defers the choice to the cost-based advisor.
const (
	StrategyNaive Strategy = iota
	StrategyAuxRel
	StrategyGlobalIndex
	StrategyAuto
)

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyAuxRel:
		return "auxrel"
	case StrategyGlobalIndex:
		return "globalindex"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy parses a strategy name as written in SQL (USING ...).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "naive", "NAIVE":
		return StrategyNaive, nil
	case "auxrel", "AUXREL", "auxiliary", "AUXILIARY":
		return StrategyAuxRel, nil
	case "globalindex", "GLOBALINDEX", "global", "GLOBAL":
		return StrategyGlobalIndex, nil
	case "auto", "AUTO":
		return StrategyAuto, nil
	default:
		return 0, fmt.Errorf("catalog: unknown strategy %q", s)
	}
}

// JoinPred is one equijoin predicate Left.LeftCol = Right.RightCol of a
// view definition.
type JoinPred struct {
	Left, LeftCol   string
	Right, RightCol string
}

// ColOf returns the join column contributed by the named table, or "" if
// the table does not participate in this predicate.
func (j JoinPred) ColOf(table string) string {
	switch table {
	case j.Left:
		return j.LeftCol
	case j.Right:
		return j.RightCol
	}
	return ""
}

// Other returns the table on the opposite side of the predicate from t.
func (j JoinPred) Other(t string) string {
	switch t {
	case j.Left:
		return j.Right
	case j.Right:
		return j.Left
	}
	return ""
}

// NextJoin picks the next step of a left-deep join over preds: the first
// predicate with exactly one side in covered. It returns that predicate, the
// table it brings in and preds without it (the backing array is reused); ok
// is false when no predicate extends the covered set — the join graph is
// disconnected.
func NextJoin(preds []JoinPred, covered map[string]bool) (j JoinPred, next string, rest []JoinPred, ok bool) {
	for i, p := range preds {
		if covered[p.Left] == covered[p.Right] {
			continue
		}
		next = p.Left
		if covered[p.Left] {
			next = p.Right
		}
		return p, next, append(preds[:i], preds[i+1:]...), true
	}
	return JoinPred{}, "", preds, false
}

// OutCol names one output column of a view.
type OutCol struct {
	Table, Col string
}

// Qualified returns the "table.col" name the view schema uses.
func (o OutCol) Qualified() string { return o.Table + "." + o.Col }

// AggSpec is one aggregate column of an aggregate join view. Only COUNT
// and SUM are allowed: they are self-maintainable under inserts *and*
// deletes (MIN/MAX are not without rescanning, and AVG decomposes into
// SUM/COUNT), matching the restrictions of the authors' companion work on
// aggregate join views.
type AggSpec struct {
	// Func is "count" (Table/Col empty) or "sum".
	Func string
	// Table/Col name the measure column for sum.
	Table, Col string
}

// Label is the schema column name of the aggregate.
func (a AggSpec) Label() string {
	if a.Func == "count" {
		return "count"
	}
	return fmt.Sprintf("%s(%s.%s)", a.Func, a.Table, a.Col)
}

// View describes a materialized join view over 2..n base tables.
type View struct {
	Name string
	// Tables lists the joined base tables in FROM order.
	Tables []string
	// Joins are the equijoin predicates; the induced join graph must be
	// connected.
	Joins []JoinPred
	// Out is the select list; empty means SELECT * (all columns of all
	// tables, prefixed). For an aggregate view, Out is the GROUP BY list.
	Out []OutCol
	// Aggs, when non-empty, makes this an aggregate join view: the
	// materialized rows are one per Out-group, carrying the aggregates.
	// A count aggregate is required (AddView appends one if missing) so
	// maintenance can delete groups whose membership drops to zero.
	Aggs []AggSpec
	// PartitionTable/PartitionCol give the view's partitioning attribute,
	// which must appear in the output.
	PartitionTable, PartitionCol string
	// Strategy is the maintenance method for this view.
	Strategy Strategy
	// Overrides optionally pins a different method per updated base
	// table — the hybrid scheme the paper's conclusion sketches ("in many
	// cases, it is possible that a hybrid method will outperform any of
	// the three methods"). A table absent from the map uses Strategy.
	Overrides map[string]Strategy
	// Schema is the derived output schema (qualified column names).
	Schema *types.Schema
}

// StrategyFor returns the maintenance method used when the named base
// table is updated, honouring per-table overrides.
func (v *View) StrategyFor(table string) Strategy {
	if s, ok := v.Overrides[table]; ok {
		return s
	}
	return v.Strategy
}

// IsAggregate reports whether this is an aggregate join view.
func (v *View) IsAggregate() bool { return len(v.Aggs) > 0 }

// CountIndex returns the schema position of the count aggregate (only
// meaningful for aggregate views; AddView guarantees one exists).
func (v *View) CountIndex() int {
	for i, a := range v.Aggs {
		if a.Func == "count" {
			return len(v.Out) + i
		}
	}
	return -1
}

// MeasureColsOf returns the measure columns the view sums from the named
// table (the extra base columns aggregate maintenance must carry).
func (v *View) MeasureColsOf(table string) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range v.Aggs {
		if a.Func == "sum" && a.Table == table && !seen[a.Col] {
			seen[a.Col] = true
			out = append(out, a.Col)
		}
	}
	return out
}

// MaintenanceProjection returns the qualified columns the maintenance
// delta must carry: the output columns for a plain view; the group columns
// plus sum measures for an aggregate view.
func (v *View) MaintenanceProjection() []string {
	names := make([]string, 0, len(v.Out)+len(v.Aggs))
	for _, o := range v.Out {
		names = append(names, o.Qualified())
	}
	if !v.IsAggregate() {
		return names
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, a := range v.Aggs {
		if a.Func != "sum" {
			continue
		}
		q := a.Table + "." + a.Col
		if !seen[q] {
			seen[q] = true
			names = append(names, q)
		}
	}
	return names
}

// HasTable reports whether the view joins the named table.
func (v *View) HasTable(name string) bool {
	for _, t := range v.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// PartitionQualified returns the qualified name of the view's partitioning
// column in the view schema.
func (v *View) PartitionQualified() string {
	return v.PartitionTable + "." + v.PartitionCol
}

// JoinsOf returns the join predicates that involve the named table.
func (v *View) JoinsOf(table string) []JoinPred {
	var out []JoinPred
	for _, j := range v.Joins {
		if j.Left == table || j.Right == table {
			out = append(out, j)
		}
	}
	return out
}

// JoinCols returns the distinct join attributes the named table contributes
// to the view, sorted (each needs an AR or GI unless the table is
// partitioned on it, per §2.2).
func (v *View) JoinCols(table string) []string {
	seen := map[string]bool{}
	for _, j := range v.Joins {
		if c := j.ColOf(table); c != "" {
			seen[c] = true
		}
	}
	cols := make([]string, 0, len(seen))
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// OutColsOf returns the output columns the view takes from the named table.
func (v *View) OutColsOf(table string) []string {
	var out []string
	for _, o := range v.Out {
		if o.Table == table {
			out = append(out, o.Col)
		}
	}
	return out
}

// Catalog is one published snapshot of the metadata: tables, views,
// auxiliary relations, global indexes and the partition map with the router
// built from it. It is immutable — it has read methods only — so any number
// of goroutines may read it without a lock. The next catalog is drafted on
// a Builder and replaces this one as a whole; objects shared between
// snapshots are never mutated in place.
type Catalog struct {
	tables   map[string]*Table
	views    map[string]*View
	auxrels  map[string]*AuxRel
	gindexes map[string]*GlobalIndex
	// arRefs tracks which views' maintenance each auxiliary relation was
	// materialized (or reused) for: AR name → set of view names. Identical
	// ARs are deduplicated at view creation, so the sets are the reference
	// counts that decide when an auto-created AR may be garbage-collected.
	arRefs map[string]map[string]bool
	// part routes values through the epoch-stamped slot→node partition
	// map; nil until a map is recorded.
	part *hashpart.Partitioner
}

// Builder drafts the next catalog: it holds a private copy of a snapshot's
// maps, offers the snapshot's read methods over the draft, and the
// mutators. Build hands the draft over as a snapshot and spends the
// builder.
type Builder struct {
	*Catalog
}

// New returns a builder over an empty catalog.
func New() *Builder {
	return &Builder{Catalog: &Catalog{
		tables:   map[string]*Table{},
		views:    map[string]*View{},
		auxrels:  map[string]*AuxRel{},
		gindexes: map[string]*GlobalIndex{},
		arRefs:   map[string]map[string]bool{},
	}}
}

// Builder returns a draft of the next catalog, starting from c. The maps
// are copied; the objects they hold are shared and never mutated in place.
func (c *Catalog) Builder() *Builder {
	return &Builder{Catalog: &Catalog{
		tables:   maps.Clone(c.tables),
		views:    maps.Clone(c.views),
		auxrels:  maps.Clone(c.auxrels),
		gindexes: maps.Clone(c.gindexes),
		arRefs:   maps.Clone(c.arRefs),
		part:     c.part,
	}}
}

// Build returns the draft as an immutable snapshot. The builder must not
// be used afterwards.
func (b *Builder) Build() *Catalog {
	c := b.Catalog
	b.Catalog = nil
	return c
}

// UsePartitionMap records the slot→node partition map the catalog routes
// through, replacing the router.
func (b *Builder) UsePartitionMap(m hashpart.Map) error {
	p, err := hashpart.For(m)
	if err != nil {
		return err
	}
	b.part = p
	return nil
}

// PartitionMap returns the recorded partition map and whether one was set.
func (c *Catalog) PartitionMap() (hashpart.Map, bool) {
	if c.part == nil {
		return hashpart.Map{}, false
	}
	return c.part.Map(), true
}

// Partitioner returns the router over the recorded partition map (nil
// when none was set).
func (c *Catalog) Partitioner() *hashpart.Partitioner { return c.part }

// AddTable validates and registers a base table.
func (c *Builder) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table needs a name")
	}
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	if t.Schema == nil || t.Schema.Len() == 0 {
		return fmt.Errorf("catalog: table %q needs columns", t.Name)
	}
	if t.Schema.ColIndex(t.PartitionCol) < 0 {
		return fmt.Errorf("catalog: table %q: partition column %q not in schema", t.Name, t.PartitionCol)
	}
	if t.ClusterCol != "" && t.Schema.ColIndex(t.ClusterCol) < 0 {
		return fmt.Errorf("catalog: table %q: cluster column %q not in schema", t.Name, t.ClusterCol)
	}
	for _, ix := range t.Indexes {
		if t.Schema.ColIndex(ix.Col) < 0 {
			return fmt.Errorf("catalog: table %q: index %q on unknown column %q", t.Name, ix.Name, ix.Col)
		}
	}
	c.tables[t.Name] = t
	return nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string { return sortedKeys(c.tables) }

// AddIndex registers a secondary index on an existing table.
func (c *Builder) AddIndex(table string, ix Index) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	if t.Schema.ColIndex(ix.Col) < 0 {
		return fmt.Errorf("catalog: index %q on unknown column %q", ix.Name, ix.Col)
	}
	for _, have := range t.Indexes {
		if have.Name == ix.Name {
			return fmt.Errorf("catalog: index %q already exists on %q", ix.Name, table)
		}
	}
	// Copy on write: the old *Table still belongs to published snapshots.
	tc := *t
	tc.Indexes = append(t.Indexes[:len(t.Indexes):len(t.Indexes)], ix)
	c.tables[table] = &tc
	return nil
}

// AddAuxRel validates and registers an auxiliary relation, deriving its
// schema from the base table.
func (c *Builder) AddAuxRel(a *AuxRel) error {
	if _, dup := c.auxrels[a.Name]; dup {
		return fmt.Errorf("catalog: auxiliary relation %q already exists", a.Name)
	}
	if _, dup := c.tables[a.Name]; dup {
		return fmt.Errorf("catalog: name %q already names a table", a.Name)
	}
	base, err := c.Table(a.Table)
	if err != nil {
		return err
	}
	cols := a.Cols
	if len(cols) == 0 {
		cols = base.Schema.Names()
	}
	schema, err := base.Schema.Project(cols)
	if err != nil {
		return fmt.Errorf("catalog: auxiliary relation %q: %w", a.Name, err)
	}
	if schema.ColIndex(a.PartitionCol) < 0 {
		return fmt.Errorf("catalog: auxiliary relation %q must retain its partition column %q", a.Name, a.PartitionCol)
	}
	a.Cols = cols
	a.Schema = schema
	c.auxrels[a.Name] = a
	return nil
}

// AuxRel returns the named auxiliary relation.
func (c *Catalog) AuxRel(name string) (*AuxRel, error) {
	a, ok := c.auxrels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no auxiliary relation %q", name)
	}
	return a, nil
}

// AuxRelsFor returns the auxiliary relations of a base table, sorted by name.
func (c *Catalog) AuxRelsFor(table string) []*AuxRel {
	var out []*AuxRel
	for _, name := range sortedKeys(c.auxrels) {
		if a := c.auxrels[name]; a.Table == table {
			out = append(out, a)
		}
	}
	return out
}

// AuxRelOn returns a base table's auxiliary relation partitioned on col and
// covering the given columns, if one exists.
func (c *Catalog) AuxRelOn(table, col string, covering []string) (*AuxRel, bool) {
	for _, a := range c.AuxRelsFor(table) {
		if a.PartitionCol == col && a.Covers(covering) {
			return a, true
		}
	}
	return nil, false
}

// AddGlobalIndex validates and registers a global index. DistClustered is
// derived from the base table's local layout.
func (c *Builder) AddGlobalIndex(g *GlobalIndex) error {
	if _, dup := c.gindexes[g.Name]; dup {
		return fmt.Errorf("catalog: global index %q already exists", g.Name)
	}
	t, err := c.Table(g.Table)
	if err != nil {
		return err
	}
	if t.Schema.ColIndex(g.Col) < 0 {
		return fmt.Errorf("catalog: global index %q on unknown column %q", g.Name, g.Col)
	}
	g.DistClustered = t.ClusterCol == g.Col
	c.gindexes[g.Name] = g
	return nil
}

// GlobalIndex returns the named global index.
func (c *Catalog) GlobalIndex(name string) (*GlobalIndex, error) {
	g, ok := c.gindexes[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no global index %q", name)
	}
	return g, nil
}

// GlobalIndexOn returns the global index of table on col, if any.
func (c *Catalog) GlobalIndexOn(table, col string) (*GlobalIndex, bool) {
	for _, name := range sortedKeys(c.gindexes) {
		if g := c.gindexes[name]; g.Table == table && g.Col == col {
			return g, true
		}
	}
	return nil, false
}

// GlobalIndexesFor returns the global indexes of a base table, by name order.
func (c *Catalog) GlobalIndexesFor(table string) []*GlobalIndex {
	var out []*GlobalIndex
	for _, name := range sortedKeys(c.gindexes) {
		if g := c.gindexes[name]; g.Table == table {
			out = append(out, g)
		}
	}
	return out
}

// AddView validates a view definition, derives its schema, and registers it.
func (c *Builder) AddView(v *View) error {
	if _, dup := c.views[v.Name]; dup {
		return fmt.Errorf("catalog: view %q already exists", v.Name)
	}
	if len(v.Tables) < 2 {
		return fmt.Errorf("catalog: view %q must join at least two tables", v.Name)
	}
	seen := map[string]bool{}
	full := types.NewSchema()
	for _, name := range v.Tables {
		if seen[name] {
			return fmt.Errorf("catalog: view %q joins table %q twice (self-joins unsupported)", v.Name, name)
		}
		seen[name] = true
		t, err := c.Table(name)
		if err != nil {
			return fmt.Errorf("catalog: view %q: %w", v.Name, err)
		}
		full = full.Concat(t.Schema.Prefixed(name))
	}
	for _, j := range v.Joins {
		for _, side := range []struct{ t, col string }{{j.Left, j.LeftCol}, {j.Right, j.RightCol}} {
			if !seen[side.t] {
				return fmt.Errorf("catalog: view %q: join references table %q not in FROM", v.Name, side.t)
			}
			t, _ := c.Table(side.t)
			if t.Schema.ColIndex(side.col) < 0 {
				return fmt.Errorf("catalog: view %q: join column %s.%s unknown", v.Name, side.t, side.col)
			}
		}
		if j.Left == j.Right {
			return fmt.Errorf("catalog: view %q: join predicate within one table", v.Name)
		}
	}
	if err := checkConnected(v); err != nil {
		return fmt.Errorf("catalog: view %q: %w", v.Name, err)
	}
	if len(v.Out) == 0 {
		if v.IsAggregate() {
			return fmt.Errorf("catalog: aggregate view %q needs an explicit GROUP BY column list", v.Name)
		}
		for _, name := range v.Tables {
			t, _ := c.Table(name)
			for _, col := range t.Schema.Names() {
				v.Out = append(v.Out, OutCol{Table: name, Col: col})
			}
		}
	}
	names := make([]string, len(v.Out))
	for i, o := range v.Out {
		if !seen[o.Table] {
			return fmt.Errorf("catalog: view %q: output references table %q not in FROM", v.Name, o.Table)
		}
		names[i] = o.Qualified()
	}
	schema, err := full.Project(names)
	if err != nil {
		return fmt.Errorf("catalog: view %q: %w", v.Name, err)
	}
	if v.IsAggregate() {
		hasCount := false
		for _, a := range v.Aggs {
			switch a.Func {
			case "count":
				if a.Table != "" || a.Col != "" {
					return fmt.Errorf("catalog: view %q: count(*) takes no column", v.Name)
				}
				hasCount = true
			case "sum":
				if !seen[a.Table] {
					return fmt.Errorf("catalog: view %q: sum over table %q not in FROM", v.Name, a.Table)
				}
				t, _ := c.Table(a.Table)
				ci := t.Schema.ColIndex(a.Col)
				if ci < 0 {
					return fmt.Errorf("catalog: view %q: sum column %s.%s unknown", v.Name, a.Table, a.Col)
				}
				if k := t.Schema.Cols[ci].Kind; k != types.KindInt && k != types.KindFloat {
					return fmt.Errorf("catalog: view %q: sum over non-numeric column %s.%s", v.Name, a.Table, a.Col)
				}
			default:
				return fmt.Errorf("catalog: view %q: aggregate %q is not self-maintainable (only count and sum are)", v.Name, a.Func)
			}
		}
		if !hasCount {
			// Maintenance needs group cardinality to delete empty groups.
			v.Aggs = append(v.Aggs, AggSpec{Func: "count"})
		}
		aggSchema := &types.Schema{}
		aggSchema.Cols = append(aggSchema.Cols, schema.Cols...)
		for _, a := range v.Aggs {
			kind := types.KindInt
			if a.Func == "sum" {
				t, _ := c.Table(a.Table)
				kind = t.Schema.Cols[t.Schema.MustColIndex(a.Col)].Kind
			}
			aggSchema.Cols = append(aggSchema.Cols, types.Column{Name: a.Label(), Kind: kind})
		}
		schema = aggSchema
	}
	v.Schema = schema
	if v.PartitionTable == "" {
		// Default: partition the view on its first output column.
		v.PartitionTable, v.PartitionCol = v.Out[0].Table, v.Out[0].Col
	}
	if schema.ColIndex(v.PartitionQualified()) < 0 {
		return fmt.Errorf("catalog: view %q: partition column %s not in output", v.Name, v.PartitionQualified())
	}
	for table := range v.Overrides {
		if !seen[table] {
			return fmt.Errorf("catalog: view %q: strategy override for table %q not in FROM", v.Name, table)
		}
	}
	c.views[v.Name] = v
	return nil
}

// checkConnected verifies the join graph spans all the view's tables.
func checkConnected(v *View) error {
	if len(v.Joins) == 0 {
		return fmt.Errorf("cartesian products unsupported: no join predicates")
	}
	reached := map[string]bool{v.Tables[0]: true}
	for changed := true; changed; {
		changed = false
		for _, j := range v.Joins {
			if reached[j.Left] != reached[j.Right] {
				reached[j.Left], reached[j.Right] = true, true
				changed = true
			}
		}
	}
	for _, t := range v.Tables {
		if !reached[t] {
			return fmt.Errorf("join graph does not reach table %q", t)
		}
	}
	return nil
}

// View returns the named view.
func (c *Catalog) View(name string) (*View, error) {
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no view %q", name)
	}
	return v, nil
}

// Views returns all view names, sorted.
func (c *Catalog) Views() []string { return sortedKeys(c.views) }

// ViewsOn returns the views that join the named base table, by name order.
func (c *Catalog) ViewsOn(table string) []*View {
	var out []*View
	for _, name := range sortedKeys(c.views) {
		if v := c.views[name]; v.HasTable(table) {
			out = append(out, v)
		}
	}
	return out
}

// DropView removes a view from the catalog.
func (c *Builder) DropView(name string) error {
	if _, ok := c.views[name]; !ok {
		return fmt.Errorf("catalog: no view %q", name)
	}
	delete(c.views, name)
	return nil
}

// DropTable removes a base table; it must not be referenced by any view,
// auxiliary relation or global index (the cluster drops those first).
func (c *Builder) DropTable(name string) error {
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	if vs := c.ViewsOn(name); len(vs) > 0 {
		return fmt.Errorf("catalog: table %q is referenced by view %q", name, vs[0].Name)
	}
	if ars := c.AuxRelsFor(name); len(ars) > 0 {
		return fmt.Errorf("catalog: table %q still has auxiliary relation %q", name, ars[0].Name)
	}
	if gis := c.GlobalIndexesFor(name); len(gis) > 0 {
		return fmt.Errorf("catalog: table %q still has global index %q", name, gis[0].Name)
	}
	delete(c.tables, name)
	return nil
}

// DropAuxRel removes an auxiliary relation from the catalog, along with
// any view references recorded against it.
func (c *Builder) DropAuxRel(name string) error {
	if _, ok := c.auxrels[name]; !ok {
		return fmt.Errorf("catalog: no auxiliary relation %q", name)
	}
	delete(c.auxrels, name)
	delete(c.arRefs, name)
	return nil
}

// RefAuxRel records that the named view's maintenance uses the AR — either
// because the AR was just materialized for it or because view creation
// deduplicated onto an existing covering AR.
func (c *Builder) RefAuxRel(ar, view string) {
	refs := maps.Clone(c.arRefs[ar]) // the old set belongs to published snapshots
	if refs == nil {
		refs = map[string]bool{}
	}
	refs[view] = true
	c.arRefs[ar] = refs
}

// AuxRelRefs returns the names of the views referencing the AR, sorted.
func (c *Catalog) AuxRelRefs(ar string) []string {
	refs := c.arRefs[ar]
	if len(refs) == 0 {
		return nil
	}
	out := make([]string, 0, len(refs))
	for v := range refs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// UnrefViewAuxRels removes the dropped view from every AR's reference set
// and returns the auto-created ARs left with no referencing view, sorted —
// the garbage a DROP VIEW may now collect. User-created ARs are never
// returned, however many views came and went.
func (c *Builder) UnrefViewAuxRels(view string) []string {
	var orphaned []string
	for name, refs := range c.arRefs {
		if !refs[view] {
			continue
		}
		if len(refs) > 1 {
			refs = maps.Clone(refs) // the old set belongs to published snapshots
			delete(refs, view)
			c.arRefs[name] = refs
			continue
		}
		delete(c.arRefs, name)
		if a, ok := c.auxrels[name]; ok && a.AutoCreated {
			orphaned = append(orphaned, name)
		}
	}
	sort.Strings(orphaned)
	return orphaned
}

// DropGlobalIndex removes a global index from the catalog.
func (c *Builder) DropGlobalIndex(name string) error {
	if _, ok := c.gindexes[name]; !ok {
		return fmt.Errorf("catalog: no global index %q", name)
	}
	delete(c.gindexes, name)
	return nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

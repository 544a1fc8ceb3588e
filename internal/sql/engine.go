package sql

import (
	"fmt"
	"strings"

	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/exec"
	"joinview/internal/expr"
	"joinview/internal/types"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Columns and Rows are set for SELECT.
	Columns []string
	Rows    []types.Tuple
	// Count is the affected-row count for INSERT/DELETE/UPDATE.
	Count int
	// Message summarizes DDL outcomes.
	Message string
}

// Exec parses and executes one statement against the cluster.
func Exec(c *cluster.Cluster, input string) (*Result, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return ExecStmt(c, st)
}

// ExecScript parses and executes a semicolon-separated script, stopping at
// the first error.
func ExecScript(c *cluster.Cluster, input string) ([]*Result, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := ExecStmt(c, st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStmt executes one parsed statement.
func ExecStmt(c *cluster.Cluster, st Stmt) (*Result, error) {
	switch s := st.(type) {
	case CreateTable:
		cols := make([]types.Column, len(s.Cols))
		for i, cd := range s.Cols {
			cols[i] = types.Column{Name: cd.Name, Kind: cd.Kind}
		}
		t := &catalog.Table{
			Name:         s.Name,
			Schema:       types.NewSchema(cols...),
			PartitionCol: s.PartitionCol,
			ClusterCol:   s.ClusterCol,
		}
		if err := c.CreateTable(t); err != nil {
			return nil, err
		}
		return &Result{Message: "table " + s.Name + " created"}, nil

	case CreateIndex:
		if err := c.CreateIndex(s.Table, s.Name, s.Col); err != nil {
			return nil, err
		}
		return &Result{Message: "index " + s.Name + " created"}, nil

	case CreateGlobalIndex:
		gi := &catalog.GlobalIndex{Name: s.Name, Table: s.Table, Col: s.Col}
		if err := c.CreateGlobalIndex(gi); err != nil {
			return nil, err
		}
		kind := "distributed non-clustered"
		if gi.DistClustered {
			kind = "distributed clustered"
		}
		return &Result{Message: "global index " + s.Name + " created (" + kind + ")"}, nil

	case CreateAuxRel:
		t, err := c.Catalog().Table(s.Table)
		if err != nil {
			return nil, err
		}
		var where expr.Expr
		if s.Where != nil {
			where, err = condExpr(*s.Where, t.Schema, s.Table)
			if err != nil {
				return nil, err
			}
		}
		ar := &catalog.AuxRel{
			Name:         s.Name,
			Table:        s.Table,
			PartitionCol: s.PartitionCol,
			Cols:         s.Cols,
			Where:        where,
		}
		if err := c.CreateAuxRel(ar); err != nil {
			return nil, err
		}
		return &Result{Message: "auxiliary relation " + s.Name + " created"}, nil

	case CreateView:
		v, err := bindView(c.Catalog(), s)
		if err != nil {
			return nil, err
		}
		if err := c.CreateView(v); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("view %s created (%s)", v.Name, v.Strategy)}, nil

	case Insert, Delete, Update:
		return execDML(c, c, st)

	case Drop:
		var err error
		switch s.Kind {
		case "table":
			err = c.DropTable(s.Name)
		case "view":
			err = c.DropView(s.Name)
		case "auxrel":
			err = c.DropAuxRel(s.Name)
		case "globalindex":
			err = c.DropGlobalIndex(s.Name)
		default:
			err = fmt.Errorf("sql: unknown drop kind %q", s.Kind)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Message: s.Kind + " " + s.Name + " dropped"}, nil

	case Select:
		return execSelect(c, s)

	case Begin, Commit, Rollback:
		return nil, fmt.Errorf("sql: transaction statements need a Session (sql.NewSession)")

	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// writer is the DML surface an autocommit statement (*cluster.Cluster)
// and a statement inside BEGIN (*cluster.Txn) share.
type writer interface {
	Insert(table string, tuples []types.Tuple) error
	Delete(table string, pred expr.Expr) ([]types.Tuple, error)
	Update(table string, set map[string]types.Value, pred expr.Expr) (int, error)
}

// execDML binds a parsed INSERT, DELETE or UPDATE against the catalog and
// runs it on w.
func execDML(c *cluster.Cluster, w writer, st Stmt) (*Result, error) {
	cat := c.Catalog()
	switch s := st.(type) {
	case Insert:
		t, err := cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		tuples := make([]types.Tuple, len(s.Rows))
		for i, row := range s.Rows {
			if len(row) != t.Schema.Len() {
				return nil, fmt.Errorf("sql: insert row %d has %d values, table %q has %d columns",
					i, len(row), s.Table, t.Schema.Len())
			}
			tuples[i] = types.Tuple(row)
		}
		if err := w.Insert(s.Table, tuples); err != nil {
			return nil, err
		}
		return &Result{Count: len(tuples)}, nil

	case Delete:
		pred, err := bindPred(cat, s.Table, s.Where)
		if err != nil {
			return nil, err
		}
		deleted, err := w.Delete(s.Table, pred)
		if err != nil {
			return nil, err
		}
		return &Result{Count: len(deleted)}, nil

	case Update:
		pred, err := bindPred(cat, s.Table, s.Where)
		if err != nil {
			return nil, err
		}
		n, err := w.Update(s.Table, s.Set, pred)
		if err != nil {
			return nil, err
		}
		return &Result{Count: n}, nil
	}
	return nil, fmt.Errorf("sql: %T is not a DML statement", st)
}

// bindPred converts parsed conditions into a predicate over the table.
func bindPred(cat *catalog.Catalog, table string, conds []Condition) (expr.Expr, error) {
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	return condsExpr(conds, t.Schema, table)
}

// bindView turns a parsed CREATE VIEW into a catalog view: aliases resolve
// to table names, equijoin conditions become join predicates, and any
// non-join condition is rejected (the paper's views are pure equijoins).
func bindView(cat *catalog.Catalog, s CreateView) (*catalog.View, error) {
	alias := map[string]string{} // binding -> real table
	v := &catalog.View{Name: s.Name}
	for _, ref := range s.Query.Tables {
		if _, err := cat.Table(ref.Name); err != nil {
			return nil, err
		}
		if _, dup := alias[ref.Binding()]; dup {
			return nil, fmt.Errorf("sql: duplicate table binding %q in view %q", ref.Binding(), s.Name)
		}
		alias[ref.Binding()] = ref.Name
		v.Tables = append(v.Tables, ref.Name)
	}
	resolve := func(binding string) (string, error) {
		if t, ok := alias[binding]; ok {
			return t, nil
		}
		return "", fmt.Errorf("sql: view %q references unknown table %q", s.Name, binding)
	}
	for _, cond := range s.Query.Where {
		if !cond.IsJoin() {
			return nil, fmt.Errorf("sql: view %q: only equijoin predicates are supported in view definitions (got %s %s)", s.Name, cond.Op, "non-join term")
		}
		lt, err := resolveOperandTable(cond.L, resolve)
		if err != nil {
			return nil, err
		}
		rt, err := resolveOperandTable(cond.R, resolve)
		if err != nil {
			return nil, err
		}
		v.Joins = append(v.Joins, catalog.JoinPred{
			Left: lt, LeftCol: cond.L.Col,
			Right: rt, RightCol: cond.R.Col,
		})
	}
	resolveItem := func(table, col string) (catalog.OutCol, error) {
		if table == "" {
			t, err := uniqueTableFor(cat, v.Tables, col)
			if err != nil {
				return catalog.OutCol{}, fmt.Errorf("sql: view %q: %w", s.Name, err)
			}
			return catalog.OutCol{Table: t, Col: col}, nil
		}
		t, err := resolve(table)
		if err != nil {
			return catalog.OutCol{}, err
		}
		return catalog.OutCol{Table: t, Col: col}, nil
	}
	if aggregateView(s.Query) {
		// Aggregate join view: GROUP BY columns become the view key, the
		// aggregate items its measures.
		for _, g := range s.Query.GroupBy {
			oc, err := resolveItem(g.Table, g.Col)
			if err != nil {
				return nil, err
			}
			v.Out = append(v.Out, oc)
		}
		for _, item := range s.Query.Items {
			switch {
			case item.Star:
				return nil, fmt.Errorf("sql: view %q: * cannot appear in an aggregate view", s.Name)
			case item.Agg == "count":
				v.Aggs = append(v.Aggs, catalog.AggSpec{Func: "count"})
			case item.Agg != "":
				oc, err := resolveItem(item.Table, item.Col)
				if err != nil {
					return nil, err
				}
				v.Aggs = append(v.Aggs, catalog.AggSpec{Func: item.Agg, Table: oc.Table, Col: oc.Col})
			default:
				oc, err := resolveItem(item.Table, item.Col)
				if err != nil {
					return nil, err
				}
				inGroup := false
				for _, have := range v.Out {
					if have == oc {
						inGroup = true
						break
					}
				}
				if !inGroup {
					return nil, fmt.Errorf("sql: view %q: column %s.%s must appear in GROUP BY or an aggregate", s.Name, oc.Table, oc.Col)
				}
			}
		}
		if len(v.Aggs) == 0 {
			return nil, fmt.Errorf("sql: view %q: GROUP BY without aggregates", s.Name)
		}
	} else {
		for _, item := range s.Query.Items {
			if item.Star {
				continue // empty Out means SELECT * in the catalog
			}
			oc, err := resolveItem(item.Table, item.Col)
			if err != nil {
				return nil, err
			}
			v.Out = append(v.Out, oc)
		}
	}
	if s.PartitionTable != "" {
		t, err := resolve(s.PartitionTable)
		if err != nil {
			return nil, err
		}
		v.PartitionTable, v.PartitionCol = t, s.PartitionCol
	}
	if s.Strategy != "" {
		strat, err := catalog.ParseStrategy(s.Strategy)
		if err != nil {
			return nil, err
		}
		v.Strategy = strat
	}
	return v, nil
}

func resolveOperandTable(o Operand, resolve func(string) (string, error)) (string, error) {
	if o.Table == "" {
		return "", fmt.Errorf("sql: join columns in view definitions must be qualified (got %q)", o.Col)
	}
	return resolve(o.Table)
}

// aggregateView reports whether the parsed view query defines an
// aggregate join view.
func aggregateView(q Select) bool {
	if len(q.GroupBy) > 0 {
		return true
	}
	for _, item := range q.Items {
		if item.Agg != "" {
			return true
		}
	}
	return false
}

// uniqueTableFor finds the single table among names containing column col.
func uniqueTableFor(cat *catalog.Catalog, names []string, col string) (string, error) {
	var found string
	for _, n := range names {
		t, err := cat.Table(n)
		if err != nil {
			return "", err
		}
		if t.Schema.ColIndex(col) >= 0 {
			if found != "" {
				return "", fmt.Errorf("column %q is ambiguous between %q and %q", col, found, n)
			}
			found = n
		}
	}
	if found == "" {
		return "", fmt.Errorf("column %q not found in any joined table", col)
	}
	return found, nil
}

// condExpr converts a single parsed condition into an expression over the
// given schema; operand tables must match binding (or be empty).
func condExpr(c Condition, schema *types.Schema, binding string) (expr.Expr, error) {
	l, err := operandExpr(c.L, schema, binding)
	if err != nil {
		return nil, err
	}
	r, err := operandExpr(c.R, schema, binding)
	if err != nil {
		return nil, err
	}
	op, err := cmpOp(c.Op)
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: l, R: r}, nil
}

// condsExpr conjoins parsed conditions over one schema; nil input means
// TRUE.
func condsExpr(conds []Condition, schema *types.Schema, binding string) (expr.Expr, error) {
	if len(conds) == 0 {
		return expr.True, nil
	}
	terms := make([]expr.Expr, 0, len(conds))
	for _, c := range conds {
		e, err := condExpr(c, schema, binding)
		if err != nil {
			return nil, err
		}
		terms = append(terms, e)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return expr.And{Terms: terms}, nil
}

func operandExpr(o Operand, schema *types.Schema, binding string) (expr.Expr, error) {
	if !o.IsCol {
		return expr.Const{V: o.Lit}, nil
	}
	if o.Table != "" && o.Table != binding {
		return nil, fmt.Errorf("sql: column %s.%s does not belong to %q", o.Table, o.Col, binding)
	}
	if schema.ColIndex(o.Col) < 0 {
		return nil, fmt.Errorf("sql: unknown column %q", o.Col)
	}
	return expr.Col{Name: o.Col}, nil
}

func cmpOp(op string) (expr.CmpOp, error) {
	switch op {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", op)
	}
}

// execSelect evaluates a SELECT at the coordinator: gather every FROM
// relation in one read scope (so a join of a table with its view sees both
// at the same statement prefix), join them over the equijoin conditions
// (exec.Join), filter the residual predicates, project. It reads base
// tables, auxiliary relations and materialized views (convenience path —
// not part of the metered study).
func execSelect(c *cluster.Cluster, s Select) (*Result, error) {
	if len(s.Tables) == 0 {
		return nil, fmt.Errorf("sql: select needs a FROM clause")
	}
	rels := make([]exec.Rel, len(s.Tables))
	from := make([]string, len(s.Tables))
	schemas := map[string]*types.Schema{}
	cat := c.Catalog()
	for i, ref := range s.Tables {
		schema, err := relationSchema(cat, ref.Name)
		if err != nil {
			return nil, err
		}
		rels[i] = exec.Rel{Binding: ref.Binding(), Schema: schema.Prefixed(ref.Binding())}
		schemas[ref.Binding()] = rels[i].Schema
		from[i] = ref.Name
	}
	rows, err := c.RelationRows(from...)
	if err != nil {
		return nil, err
	}
	for i := range rels {
		rels[i].Rows = rows[i]
	}

	// An equijoin between columns of two FROM relations is a join
	// predicate, in WHERE order; every other condition, and each join
	// predicate no join step used, filters the joined rows.
	resolves := func(o Operand) bool {
		schema, ok := schemas[o.Table]
		return ok && schema.ColIndex(o.Table+"."+o.Col) >= 0
	}
	var preds []catalog.JoinPred
	var filters []Condition
	for _, cond := range s.Where {
		if cond.IsJoin() && resolves(cond.L) && resolves(cond.R) {
			preds = append(preds, catalog.JoinPred{Left: cond.L.Table, LeftCol: cond.L.Col, Right: cond.R.Table, RightCol: cond.R.Col})
		} else {
			filters = append(filters, cond)
		}
	}
	cur, curSchema, residual, err := exec.Join(rels, preds)
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	for _, p := range residual {
		filters = append(filters, Condition{Op: "=",
			L: Operand{IsCol: true, Table: p.Left, Col: p.LeftCol},
			R: Operand{IsCol: true, Table: p.Right, Col: p.RightCol}})
	}
	var filtered []types.Tuple
	for _, t := range cur {
		keep := true
		for _, cond := range filters {
			e, err := selectCondExpr(cond, curSchema)
			if err != nil {
				return nil, err
			}
			ok, err := expr.Matches(e, curSchema, t)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			filtered = append(filtered, t)
		}
	}

	// Aggregation path: count/sum/min/max/avg with optional GROUP BY.
	if hasAggregate(s) {
		return execAggregate(s, curSchema, filtered)
	}

	// Projection.
	var names []string
	for _, item := range s.Items {
		if item.Star {
			names = append(names, curSchema.Names()...)
			continue
		}
		name, err := resolveSelectCol(curSchema, item.Table, item.Col)
		if err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	proj := expr.NewProjection(names)
	outRows := make([]types.Tuple, 0, len(filtered))
	for _, t := range filtered {
		p, err := proj.Apply(curSchema, t)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, p.Clone())
	}
	return &Result{Columns: names, Rows: outRows}, nil
}

// relationSchema finds the schema of a base table, auxiliary relation or
// view by name.
func relationSchema(cat *catalog.Catalog, name string) (*types.Schema, error) {
	if t, err := cat.Table(name); err == nil {
		return t.Schema, nil
	}
	if a, err := cat.AuxRel(name); err == nil {
		return a.Schema, nil
	}
	if v, err := cat.View(name); err == nil {
		return v.Schema, nil
	}
	return nil, fmt.Errorf("sql: no table, auxiliary relation or view named %q", name)
}

// selectCondExpr converts a residual condition over the joined schema.
func selectCondExpr(c Condition, schema *types.Schema) (expr.Expr, error) {
	mk := func(o Operand) (expr.Expr, error) {
		if !o.IsCol {
			return expr.Const{V: o.Lit}, nil
		}
		name, err := resolveSelectCol(schema, o.Table, o.Col)
		if err != nil {
			return nil, err
		}
		return expr.Col{Name: name}, nil
	}
	l, err := mk(c.L)
	if err != nil {
		return nil, err
	}
	r, err := mk(c.R)
	if err != nil {
		return nil, err
	}
	op, err := cmpOp(c.Op)
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: l, R: r}, nil
}

// resolveSelectCol maps a (table, col) reference onto the joined schema's
// qualified names: exact "table.col" when qualified, otherwise a unique
// ".col" suffix match.
func resolveSelectCol(schema *types.Schema, table, col string) (string, error) {
	if table != "" {
		name := table + "." + col
		if schema.ColIndex(name) >= 0 {
			return name, nil
		}
		return "", fmt.Errorf("sql: unknown column %s.%s", table, col)
	}
	if schema.ColIndex(col) >= 0 {
		return col, nil
	}
	var found string
	for _, n := range schema.Names() {
		if strings.HasSuffix(n, "."+col) {
			if found != "" {
				return "", fmt.Errorf("sql: column %q is ambiguous (%s vs %s)", col, found, n)
			}
			found = n
		}
	}
	if found == "" {
		return "", fmt.Errorf("sql: unknown column %q", col)
	}
	return found, nil
}

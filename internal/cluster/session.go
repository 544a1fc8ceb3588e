package cluster

import (
	"fmt"

	"joinview/internal/expr"
	"joinview/internal/txn"
	"joinview/internal/types"
)

// Txn is an open multi-statement transaction — the paper's "begin
// transaction; update base relation; update auxiliary relation; update
// join view; end transaction" scope, widened to several statements.
//
// Each statement applies atomically (a failing statement is fully undone
// and reported, leaving the transaction open). Rollback undoes every
// applied statement in reverse with *logical* compensation: the inverse
// statement runs through the full maintenance pipeline, so auxiliary
// relations, global indexes and views stay consistent even when later
// statements in the same transaction moved the affected tuples. Isolation
// is statement-level: other sessions observe applied statements
// immediately (the paper's locking protocols for stronger isolation are
// companion work; its experiments run one transaction at a time).
type Txn struct {
	c    *Cluster
	u    txn.Txn
	done bool
}

// Begin opens a transaction.
func (c *Cluster) Begin() *Txn {
	return &Txn{c: c}
}

func (t *Txn) check() error {
	if t.done {
		return fmt.Errorf("cluster: transaction already finished")
	}
	// Multi-statement transactions stay synchronous: their statement-level
	// rollback hooks compensate against applied state, which deferred
	// deltas would invalidate. Drain the queue first so the transaction
	// sees — and compensates against — fully-applied state.
	if t.c.asyncOn() {
		if err := t.c.Flush(); err != nil {
			return fmt.Errorf("cluster: draining maintenance queue before transaction statement: %w", err)
		}
	}
	return nil
}

// Insert runs one insert statement inside the transaction.
func (t *Txn) Insert(table string, tuples []types.Tuple) error {
	_, err := t.write(stmt{table: table, add: tuples})
	return err
}

// Delete runs one delete statement inside the transaction, returning the
// deleted tuples.
func (t *Txn) Delete(table string, pred expr.Expr) ([]types.Tuple, error) {
	st, err := t.write(stmt{table: table, scan: true, where: pred})
	if err != nil {
		return nil, err
	}
	return st.victims, nil
}

// Update runs one update statement inside the transaction (delete + insert
// of the modified tuples, one atomic statement), returning the affected
// count.
func (t *Txn) Update(table string, set map[string]types.Value, pred expr.Expr) (int, error) {
	st, err := t.write(updateStmt(table, set, pred))
	if err != nil {
		return 0, err
	}
	return len(st.victims), nil
}

// write runs the statement exactly as an autocommit one, then registers its
// logical inverse — remove what it added, add back what it removed — as
// one statement of its own for Rollback.
func (t *Txn) write(st stmt) (stmt, error) {
	if err := t.check(); err != nil {
		return stmt{}, err
	}
	st, err := t.c.write(st, false)
	if err != nil || st.empty() {
		return st, err
	}
	inverse := stmt{
		table:  st.table,
		remove: append([]types.Tuple(nil), st.add...),
		add:    append([]types.Tuple(nil), st.victims...),
	}
	t.u.OnRollback(func() error {
		// Rollback holds the global lock: the catalog loaded here is the
		// one the inverse statement runs on throughout.
		cat := t.c.Catalog()
		if err := t.c.resolve(cat, &inverse, false); err != nil {
			return err
		}
		return t.c.apply(cat, &inverse)
	})
	return st, nil
}

// Commit finalizes the transaction; its effects stay.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	t.u.Commit()
	return nil
}

// Rollback undoes every applied statement in reverse order. It takes the
// global lock: the undo statements may span several tables, and computing
// their combined claim set up front is not worth the complexity for an
// abort path.
func (t *Txn) Rollback() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	h := t.c.lockGlobal()
	defer h.Release()
	return t.u.Rollback()
}

// Active reports whether the transaction can still accept statements.
func (t *Txn) Active() bool { return !t.done }

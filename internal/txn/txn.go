// Package txn is a reverse-order hook list. cluster.Txn (a multi-statement
// BEGIN … ROLLBACK) registers one logical inverse statement per applied
// statement and runs them newest-first on Rollback. The scope of a single
// statement — the paper's "begin transaction; update base relation; update
// auxiliary relation / global index; update join view; end transaction" —
// is not here: it is cluster.stmtScope, whose undo log the delivery layer
// fills and node.InverseOf inverts.
package txn

import (
	"errors"
	"fmt"
)

// Txn is a list of rollback hooks. The zero value is ready to use.
type Txn struct {
	undo []func() error
	done bool
}

// OnRollback registers a compensating action for work just applied.
// Actions run in reverse registration order on Rollback.
func (t *Txn) OnRollback(f func() error) {
	t.undo = append(t.undo, f)
}

// Commit discards the undo log; the transaction's effects stay.
func (t *Txn) Commit() {
	t.undo = nil
	t.done = true
}

// Rollback runs all compensating actions in reverse order, joining any
// errors they raise. It is a no-op after Commit or a previous Rollback.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	var errs []error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i](); err != nil {
			errs = append(errs, fmt.Errorf("txn: undo step %d: %w", i, err))
		}
	}
	t.undo = nil
	return errors.Join(errs...)
}

// Package txn provides the coordinator-side transaction scope the paper's
// maintenance flows run inside ("begin transaction; update base relation;
// update auxiliary relation / global index; update join view; end
// transaction"). A Txn collects compensating actions as a statement makes
// progress; on error everything applied so far is undone in reverse order,
// so base relations, auxiliary structures and views stay mutually
// consistent.
package txn

import (
	"errors"
	"fmt"
)

// Txn is an undo log. The zero value is ready to use.
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

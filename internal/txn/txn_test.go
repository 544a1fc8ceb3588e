package txn

import (
	"errors"
	"testing"
)

func TestRollbackReverseOrder(t *testing.T) {
	var tx Txn
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		tx.OnRollback(func() error { got = append(got, i); return nil })
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Errorf("rollback order = %v", got)
	}
	// Second rollback is a no-op.
	got = nil
	if err := tx.Rollback(); err != nil || got != nil {
		t.Error("second rollback should do nothing")
	}
}

func TestCommitDisablesRollback(t *testing.T) {
	var tx Txn
	ran := false
	tx.OnRollback(func() error { ran = true; return nil })
	tx.Commit()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("rollback after commit must not run undo actions")
	}
}

func TestRollbackCollectsErrors(t *testing.T) {
	var tx Txn
	e1 := errors.New("one")
	ran := false
	tx.OnRollback(func() error { ran = true; return nil })
	tx.OnRollback(func() error { return e1 })
	err := tx.Rollback()
	if err == nil || !errors.Is(err, e1) {
		t.Errorf("Rollback error = %v", err)
	}
	if !ran {
		t.Error("later undo actions must still run after an error")
	}
}

func TestRollbackJoinsMultipleErrors(t *testing.T) {
	var tx Txn
	e1, e2 := errors.New("one"), errors.New("two")
	var order []string
	tx.OnRollback(func() error { order = append(order, "a"); return e1 })
	tx.OnRollback(func() error { order = append(order, "b"); return nil })
	tx.OnRollback(func() error { order = append(order, "c"); return e2 })
	err := tx.Rollback()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("Rollback = %v, want both errors joined", err)
	}
	if len(order) != 3 || order[0] != "c" || order[1] != "b" || order[2] != "a" {
		t.Errorf("undo order with errors = %v", order)
	}
}

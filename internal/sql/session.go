package sql

import (
	"fmt"

	"joinview/internal/cluster"
)

// Session executes statements with transaction state: BEGIN opens a
// multi-statement transaction, COMMIT/ROLLBACK close it, and DML in
// between shares one undo scope — the paper's "begin transaction ...
// end transaction" brackets as SQL. Outside a transaction every statement
// auto-commits, identical to the package-level Exec.
type Session struct {
	c  *cluster.Cluster
	tx *cluster.Txn
}

// NewSession creates a session over the cluster.
func NewSession(c *cluster.Cluster) *Session {
	return &Session{c: c}
}

// InTransaction reports whether a transaction is open.
func (s *Session) InTransaction() bool {
	return s.tx != nil && s.tx.Active()
}

// Exec parses and executes one statement with the session's transaction
// state.
func (s *Session) Exec(input string) (*Result, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(st)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error (an open transaction is left open for the caller to resolve).
func (s *Session) ExecScript(input string) ([]*Result, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := s.ExecStmt(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStmt executes one parsed statement.
func (s *Session) ExecStmt(st Stmt) (*Result, error) {
	switch st.(type) {
	case Begin:
		if s.InTransaction() {
			return nil, fmt.Errorf("sql: transaction already open")
		}
		s.tx = s.c.Begin()
		return &Result{Message: "transaction started"}, nil

	case Commit:
		if !s.InTransaction() {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "committed"}, nil

	case Rollback:
		if !s.InTransaction() {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		err := s.tx.Rollback()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "rolled back"}, nil

	case Insert, Delete, Update:
		if s.InTransaction() {
			return execDML(s.c, s.tx, st)
		}
		return execDML(s.c, s.c, st)

	default:
		// DDL and SELECT run outside transaction scope (DDL is not
		// transactional; SELECT sees statement-level state either way).
		if s.InTransaction() {
			if _, ddl := st.(Select); !ddl {
				return nil, fmt.Errorf("sql: DDL is not allowed inside a transaction")
			}
		}
		return ExecStmt(s.c, st)
	}
}

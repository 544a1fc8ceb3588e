// Package joinview is a parallel-RDBMS simulator with materialized join
// views, reproducing "A Comparison of Three Methods for Join View
// Maintenance in Parallel RDBMS" (Luo, Naughton, Ellmann, Watzke —
// ICDE 2003).
//
// A DB is an L-node shared-nothing database: base relations are
// hash-partitioned across the nodes, and join views over them are kept
// incrementally consistent under inserts, deletes and updates by one of
// three maintenance methods:
//
//   - StrategyNaive — broadcast each delta to every node and probe there;
//   - StrategyAuxRel — keep auxiliary relations re-partitioned on the join
//     attributes, so a delta touches one node;
//   - StrategyGlobalIndex — keep global indexes mapping join values to
//     global row ids, touching 1 + K nodes;
//   - StrategyAuto — pick the cheapest by the paper's cost model, once per
//     compiled maintenance plan.
//
// Every operation is metered in the paper's logical I/O units (SEARCH = 1,
// FETCH = 1, INSERT = 2) plus interconnect messages, so the experiments in
// the paper's evaluation can be regenerated; see EXPERIMENTS.md.
//
// The surface is both programmatic (CreateTable/CreateView/Insert/...) and
// SQL (Exec/ExecScript with the paper's CREATE VIEW ... statements).
package joinview

import (
	"joinview/internal/catalog"
	"joinview/internal/cluster"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/mplan"
	"joinview/internal/node"
	"joinview/internal/sql"
	"joinview/internal/types"
)

// Re-exported schema and metadata types. These aliases are the public
// names; the implementation lives under internal/.
type (
	// Value is a SQL value (NULL, BIGINT, DOUBLE or VARCHAR).
	Value = types.Value
	// Tuple is one row.
	Tuple = types.Tuple
	// Schema is an ordered list of named, typed columns.
	Schema = types.Schema
	// Column is one schema attribute.
	Column = types.Column
	// Kind enumerates value types.
	Kind = types.Kind

	// Table describes a base relation: schema, partitioning attribute,
	// optional local cluster column and secondary indexes.
	Table = catalog.Table
	// Index is a non-clustered local secondary index.
	Index = catalog.Index
	// View describes a materialized join view.
	View = catalog.View
	// JoinPred is one equijoin predicate of a view definition.
	JoinPred = catalog.JoinPred
	// OutCol names one output column of a view.
	OutCol = catalog.OutCol
	// AuxRel describes an auxiliary relation (π(σ(R)) re-partitioned on a
	// join attribute).
	AuxRel = catalog.AuxRel
	// GlobalIndex describes a global index on a non-partitioning
	// attribute.
	GlobalIndex = catalog.GlobalIndex
	// Strategy selects a view-maintenance method.
	Strategy = catalog.Strategy

	// Advice is the materialization advisor's report (see
	// DB.AdviseMaterialization).
	Advice = mplan.Advice
	// AdviceItem is one recommended auxiliary structure.
	AdviceItem = mplan.AdviceItem

	// Metrics is a snapshot of per-node I/O counters and message counts.
	Metrics = cluster.Metrics
	// Result is the outcome of one SQL statement.
	Result = sql.Result

	// Expr is a scalar predicate for DELETE/UPDATE and auxiliary-relation
	// selections.
	Expr = expr.Expr
)

// Maintenance strategies.
const (
	StrategyNaive       = catalog.StrategyNaive
	StrategyAuxRel      = catalog.StrategyAuxRel
	StrategyGlobalIndex = catalog.StrategyGlobalIndex
	StrategyAuto        = catalog.StrategyAuto
)

// Value kinds.
const (
	KindNull   = types.KindNull
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
)

// Int builds a BIGINT value.
func Int(v int64) Value { return types.Int(v) }

// Float builds a DOUBLE value.
func Float(v float64) Value { return types.Float(v) }

// String builds a VARCHAR value.
func String(v string) Value { return types.String(v) }

// Null builds the NULL value.
func Null() Value { return types.Null() }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return types.NewSchema(cols...) }

// Col references a column in a predicate.
func Col(name string) Expr { return expr.Col{Name: name} }

// Lit embeds a literal in a predicate.
func Lit(v Value) Expr { return expr.Const{V: v} }

// Eq builds the predicate `col = value`.
func Eq(col string, v Value) Expr {
	return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: col}, R: expr.Const{V: v}}
}

// Lt builds the predicate `col < value`.
func Lt(col string, v Value) Expr {
	return expr.Cmp{Op: expr.LT, L: expr.Col{Name: col}, R: expr.Const{V: v}}
}

// Gt builds the predicate `col > value`.
func Gt(col string, v Value) Expr {
	return expr.Cmp{Op: expr.GT, L: expr.Col{Name: col}, R: expr.Const{V: v}}
}

// And conjoins predicates.
func And(terms ...Expr) Expr { return expr.And{Terms: terms} }

// True is the always-true predicate (DELETE without WHERE).
var True Expr = expr.And{}

// Options configures a database. It is cluster.Config, whose doc comments
// describe every field; the zero value of each field but Nodes is its
// default.
type Options = cluster.Config

// JoinAlgo selects the local join algorithm of maintenance probes.
type JoinAlgo = node.Algo

// Join algorithms. JoinAuto is the zero value, so an unset Options.JoinAlgo
// keeps the per-node cost crossover.
const (
	JoinAuto      = node.AlgoAuto
	JoinIndex     = node.AlgoIndex
	JoinSortMerge = node.AlgoSortMerge
)

// Fault-injection surface, re-exported from the internal fault package.
type (
	// FaultInjector decides, deterministically from a seed, which
	// deliveries suffer drops, duplicates, delays, transient handler
	// errors or node crashes.
	FaultInjector = fault.Injector
	// FaultConfig is the injector's probability schedule.
	FaultConfig = fault.Config
	// FaultStats counts injected faults by kind.
	FaultStats = fault.Stats
)

// NewFaultInjector builds a disarmed injector with the given schedule.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// Degradation sentinels: match with errors.Is.
var (
	// ErrDegraded reports a maintenance statement refused because a node
	// is down; the statement left no partial effects.
	ErrDegraded = cluster.ErrDegraded
	// ErrPartial tags a read that returned only the surviving nodes'
	// rows while the cluster is degraded.
	ErrPartial = cluster.ErrPartial
	// ErrSuspect reports a call refused because the destination's circuit
	// breaker is open (Options.BreakerThreshold consecutive failures).
	ErrSuspect = cluster.ErrSuspect
	// ErrMigration tags every elasticity failure: a migration that
	// aborted, or DDL refused while a rebalance is in flight.
	ErrMigration = cluster.ErrMigration
	// ErrOverload reports a DML statement shed by the async queue's
	// admission control (Options.MaxQueueDepth / MaxStaleness); the
	// statement left no effects. Retry after the flusher drains.
	ErrOverload = cluster.ErrOverload
)

// PartialError is the concrete error wrapping ErrPartial: it names the
// fragment read, the down nodes and how many hash slots were unreachable.
// Extract it with errors.As.
type PartialError = cluster.PartialError

// Bounded-staleness read surface (AsyncMaintenance mode).
type (
	// ReadMode selects the staleness contract of a view read: ReadFresh
	// drains the queue first, ReadAtWatermark returns immediately with
	// state that is prefix-consistent per table and at least as fresh as
	// the watermark it returns (mid-flush, committed table groups of the
	// in-flight epoch are already visible).
	ReadMode = cluster.ReadMode
	// Watermark locates the apply frontier a bounded-stale read reflects:
	// last completed epoch, highest flushed sequence, pending count and
	// the oldest pending entry's age.
	Watermark = cluster.Watermark
)

// Read modes for ReadView.
const (
	ReadAtWatermark = cluster.ReadAtWatermark
	ReadFresh       = cluster.ReadFresh
)

// DB is an open parallel database.
type DB struct {
	c *cluster.Cluster
}

// Open creates a database with empty catalog and storage.
func Open(opts Options) (*DB, error) {
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	return &DB{c: c}, nil
}

// Close releases the database's resources.
func (db *DB) Close() { db.c.Close() }

// NumNodes returns the node count L.
func (db *DB) NumNodes() int { return db.c.NumNodes() }

// Exec parses and executes one SQL statement.
func (db *DB) Exec(query string) (*Result, error) { return sql.Exec(db.c, query) }

// ExecScript executes a semicolon-separated SQL script, stopping at the
// first error.
func (db *DB) ExecScript(script string) ([]*Result, error) { return sql.ExecScript(db.c, script) }

// CreateTable registers a base table and allocates its fragments.
func (db *DB) CreateTable(t *Table) error { return db.c.CreateTable(t) }

// CreateIndex adds a non-clustered secondary index to a base table.
func (db *DB) CreateIndex(table, name, col string) error {
	return db.c.CreateIndex(table, name, col)
}

// CreateAuxRel creates and backfills an auxiliary relation.
func (db *DB) CreateAuxRel(a *AuxRel) error { return db.c.CreateAuxRel(a) }

// CreateGlobalIndex creates and backfills a global index.
func (db *DB) CreateGlobalIndex(g *GlobalIndex) error { return db.c.CreateGlobalIndex(g) }

// CreateView registers a join view, creates any auxiliary structures its
// strategy needs, and materializes the initial contents.
func (db *DB) CreateView(v *View) error { return db.c.CreateView(v) }

// DropView removes a view and its fragments.
func (db *DB) DropView(name string) error { return db.c.DropView(name) }

// DropTable removes a base table, cascading over its auxiliary relations
// and global indexes; it refuses while a view references the table.
func (db *DB) DropTable(name string) error { return db.c.DropTable(name) }

// DropAuxRel removes an auxiliary relation unless a view's maintenance
// still depends on it.
func (db *DB) DropAuxRel(name string) error { return db.c.DropAuxRel(name) }

// DropGlobalIndex removes a global index and its fragments.
func (db *DB) DropGlobalIndex(name string) error { return db.c.DropGlobalIndex(name) }

// Insert runs one insert transaction: stores the tuples and maintains all
// auxiliary relations, global indexes and views of the table.
func (db *DB) Insert(table string, tuples []Tuple) error { return db.c.Insert(table, tuples) }

// Delete removes the tuples matching pred, maintaining all structures and
// views, and returns the deleted tuples.
func (db *DB) Delete(table string, pred Expr) ([]Tuple, error) { return db.c.Delete(table, pred) }

// Update rewrites matching tuples (delete + insert of the modified rows),
// returning the affected count.
func (db *DB) Update(table string, set map[string]Value, pred Expr) (int, error) {
	return db.c.Update(table, set, pred)
}

// TableRows returns every stored tuple of a base or auxiliary relation.
func (db *DB) TableRows(name string) ([]Tuple, error) { return db.c.TableRows(name) }

// ViewRows returns the materialized content of a view.
func (db *DB) ViewRows(name string) ([]Tuple, error) { return db.c.ViewRows(name) }

// ReadView reads a view under the chosen staleness mode (AsyncMaintenance
// mode; with async off both modes are the plain fresh read). ReadFresh
// drains the queue first; ReadAtWatermark returns immediately, the rows
// at least as fresh as the returned watermark (per-table prefix
// consistency — see cluster.ReadAtWatermark for the mid-flush caveat).
func (db *DB) ReadView(name string, mode ReadMode) ([]Tuple, Watermark, error) {
	return db.c.ReadViewRows(name, mode)
}

// Flush drains the async maintenance queue: completes any interrupted
// flush epoch, then compacts and applies every pending delta. A no-op
// with AsyncMaintenance off.
func (db *DB) Flush() error { return db.c.Flush() }

// Watermark reports the queue's apply frontier (zero with async off).
func (db *DB) Watermark() Watermark { return db.c.Watermark() }

// ResumeMaintenance settles the async queue after a failure: in
// Durability mode it rebuilds the queue from the coordinator's log, then
// rolls any interrupted flush epoch forward — re-applying exactly the
// groups whose commit record is missing. Call it after recovering
// crashed nodes, alongside ResumeMigrations.
func (db *DB) ResumeMaintenance() error { return db.c.ResumeMaintenance() }

// CheckViewConsistency verifies a view equals a from-scratch recomputation
// of its definition.
func (db *DB) CheckViewConsistency(name string) error { return db.c.CheckViewConsistency(name) }

// RefreshStats recomputes optimizer statistics for a table.
func (db *DB) RefreshStats(table string) error { return db.c.RefreshStats(table) }

// Metrics snapshots the per-node I/O counters and message statistics.
func (db *DB) Metrics() Metrics { return db.c.Metrics() }

// ResetMetrics zeroes all counters, opening a fresh measurement window.
func (db *DB) ResetMetrics() { db.c.ResetMetrics() }

// ExplainPipeline renders the compiled maintenance pipeline for one
// (table, op) pair — op is "insert" or "delete" — listing its stages in
// execution order and the method each view stage was compiled to; an
// auto-strategy view's method is the cheapest by the paper's cost model,
// priced once per compiled plan.
func (db *DB) ExplainPipeline(table, op string) (string, error) {
	return db.c.ExplainPipeline(table, op)
}

// AdviseMaterialization runs the materialization advisor: it prices every
// auxiliary relation and global index the current views could use but the
// catalog lacks, on the shared maintenance DAG's cost model, and returns
// the greedily chosen set that most reduces modeled maintenance workload.
// Nothing is created; materialize recommendations with CreateAuxRel /
// CreateGlobalIndex (or re-create views) as desired.
func (db *DB) AdviseMaterialization() (*Advice, error) {
	return db.c.AdviseMaterialization()
}

// Tx is an open multi-statement transaction (Begin/Insert/Delete/Update/
// Commit/Rollback) — the paper's "begin transaction ... end transaction"
// scope.
type Tx = cluster.Txn

// Begin opens a multi-statement transaction. Statements apply atomically;
// Rollback undoes all of them in reverse order, including all view and
// auxiliary-structure maintenance.
func (db *DB) Begin() *Tx { return db.c.Begin() }

// Session is a SQL session with transaction state (BEGIN/COMMIT/ROLLBACK).
type Session = sql.Session

// NewSession opens a SQL session; DML between BEGIN and COMMIT shares one
// undo scope.
func (db *DB) NewSession() *Session { return sql.NewSession(db.c) }

// QuerySpec is an ad-hoc equijoin query over base tables.
type QuerySpec = cluster.QuerySpec

// QueryJoin answers an ad-hoc equijoin without a view: it scans every
// table in one read scope, scan I/O charged, and joins the rows at the
// coordinator with the function that also backfills views and recomputes
// them for verification. It writes nothing. Compare its cost against
// scanning a materialized view to see why warehouses materialize.
func (db *DB) QueryJoin(spec QuerySpec) ([]Tuple, *Schema, error) {
	return db.c.QueryJoin(spec)
}

// ScanViewMetered reads a view with scan I/O charged (the query-side
// counterpart of ViewRows).
func (db *DB) ScanViewMetered(name string) ([]Tuple, error) {
	return db.c.ScanFragmentMetered(name)
}

// StorageReport is the cluster-wide space accounting: the footprint of
// every table, auxiliary relation, global index and view.
type StorageReport = cluster.StorageReport

// StorageReport gathers the sizes of all stored objects — the space side
// of the paper's space-for-time trade-off.
func (db *DB) StorageReport() (StorageReport, error) { return db.c.StorageReport() }

// CheckAllStructures verifies every auxiliary relation, global index and
// view against the current base relations.
func (db *DB) CheckAllStructures() error { return db.c.CheckAllStructures() }

// Degraded lists the nodes the coordinator currently considers down
// (discovered from failed deliveries or marked explicitly). Empty means
// full service.
func (db *DB) Degraded() []int { return db.c.Degraded() }

// MarkNodeDown tells the coordinator to treat a node as failed without
// waiting for a delivery to discover it.
func (db *DB) MarkNodeDown(n int) error { return db.c.MarkNodeDown(n) }

// Recover repairs a restarted node. In Durability mode it restarts the
// node from its checkpoint plus write-ahead-log tail and resolves its
// in-doubt transactions against the coordinator's decision log; otherwise
// it replays compensations that could not reach the node, resolves
// in-doubt deliveries, and rebuilds the node's derived fragments from the
// base relations.
// With ReplicationFactor > 1 it instead delegates to ReplicateRepair: the
// node's slots were promoted to followers at failover, so bringing it back
// is a re-replication round, not a replay.
func (db *DB) Recover(n int) error { return db.c.Recover(n) }

// ReplRepairStatus describes an in-flight re-replication round (see
// Topology.Repair).
type ReplRepairStatus = cluster.ReplRepairStatus

// ReplicateRepair restores full replication strength after failures
// (ReplicationFactor > 1 only): down nodes are restarted and wiped, slots
// missing followers get new ones assigned, and every fragment's rows are
// recopied to the new followers online — DML on other tables keeps
// running during the copy. Safe to rerun after a mid-repair failure.
func (db *DB) ReplicateRepair() error { return db.c.ReplicateRepair() }

// RecoveryReport accounts what one recovery did and what it cost (mode,
// pages read, records replayed, in-doubt transactions resolved).
type RecoveryReport = cluster.RecoveryReport

// RecoverWithReport is Recover plus the cost accounting.
func (db *DB) RecoverWithReport(n int) (RecoveryReport, error) {
	return db.c.RecoverWithReport(n)
}

// CheckpointResult reports one node's checkpoint: the log position it
// covers and the pages its state image cost.
type CheckpointResult = node.CheckpointResult

// Checkpoint snapshots every live node's state to its durable area and
// truncates the covered log prefix (Durability mode only).
func (db *DB) Checkpoint() ([]CheckpointResult, error) { return db.c.Checkpoint() }

// CrashNode fail-stops a durable node: its fragments, indexes and dedup
// cache are wiped; only the write-ahead log and last checkpoint survive
// (Durability mode only).
func (db *DB) CrashNode(n int) error { return db.c.CrashNode(n) }

// RestartResult summarizes a node restart: the checkpoint it loaded, the
// log tail it replayed, and the transactions still in doubt.
type RestartResult = node.RestartResult

// RestartNode brings a crashed durable node back from its checkpoint and
// log tail, leaving in-doubt transactions for Recover to resolve.
func (db *DB) RestartNode(n int) (RestartResult, error) { return db.c.RestartNode(n) }

// Elasticity surface, re-exported from the internal cluster package.
type (
	// Topology is a snapshot of the versioned partition map: epoch, node
	// count, per-slot owners, retired nodes and any in-flight migration.
	Topology = cluster.Topology
	// MigrationStats is the cost accounting of one completed (or aborted)
	// rebalance: rows and pages copied, envelopes sent, cutover stall
	// time.
	MigrationStats = cluster.MigrationStats
	// MigrationStatus describes an in-flight migration.
	MigrationStatus = cluster.MigrationStatus
)

// AddNode grows the cluster by one data-server node while DML continues:
// the node is provisioned with every fragment, the partition map doubles
// its slot count for a finer rebalance grain, and a live migration moves
// a proportional share of each hash range — base fragments, auxiliary
// relations, global indexes and view fragments — to the new node: a
// snapshot copy into follower shadows there, every concurrent write
// mirrored to them synchronously, and a brief exclusive cutover that
// promotes them. Works at any ReplicationFactor. Returns the new node's
// id.
func (db *DB) AddNode() (int, error) { return db.c.AddNode() }

// DecommissionNode migrates every hash slot a node owns to the surviving
// nodes and retires it from the partition map. The node stays addressable
// (retired, empty) so historical node ids remain stable. Under replication
// it also leaves every replica set, and a re-replication round restores
// full strength on the survivors before the call returns.
func (db *DB) DecommissionNode(n int) error { return db.c.DecommissionNode(n) }

// RebalanceNode moves hash slots to the given node until it owns its fair
// share — AddNode's migration step, reusable to retry after a failure or
// to rebalance an existing node (a decommissioned one returns to
// service). A no-op when the node is already balanced.
func (db *DB) RebalanceNode(n int) error { return db.c.RebalanceNode(n) }

// Topology snapshots the versioned partition map and migration status.
func (db *DB) Topology() Topology { return db.c.Topology() }

// MigrationActive reports whether a rebalance is in flight.
func (db *DB) MigrationActive() bool { return db.c.MigrationActive() }

// LastMigration returns the most recent migration's cost accounting.
func (db *DB) LastMigration() (MigrationStats, bool) { return db.c.LastMigration() }

// ResumeMigrations drives every undecided migration in the coordinator's
// write-ahead log to a decision after a failure: committed migrations
// roll forward (re-home stale source copies, rebuild global indexes),
// uncommitted ones roll back presumed-abort style. Call it after recovering crashed nodes.
func (db *DB) ResumeMigrations() error { return db.c.ResumeMigrations() }

// Suspect lists nodes whose circuit breakers are open.
func (db *DB) Suspect() []int { return db.c.Suspect() }

// Cluster exposes the underlying engine for the in-repo benchmarks and
// examples that need lower-level access (experiment harnesses).
func (db *DB) Cluster() *cluster.Cluster { return db.c }

// Package cluster assembles the parallel RDBMS: L data-server nodes, a
// hash-partitioning map, an interconnect, the catalog, statistics and the
// view-maintenance machinery. It exposes the DDL/DML surface the
// experiments and the public joinview package drive.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinview/internal/buffer"
	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/hashpart"
	"joinview/internal/lockmgr"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	netsimtcp "joinview/internal/netsim/tcp"
	"joinview/internal/node"
	"joinview/internal/stats"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// Config parameterizes a cluster. It is the one declaration of the
// engine's configuration: the public joinview.Options is this type.
type Config struct {
	// Nodes is the number of data-server nodes L (required, >= 1).
	Nodes int
	// PageRows is tuples per page (storage.DefaultPageRows if zero);
	// page counts feed the scan/sort cost accounting.
	PageRows int
	// UseChannels runs each node as its own goroutine with channel message
	// passing; the default is the deterministic in-process transport.
	UseChannels bool
	// JoinAlgo pins the local join algorithm of maintenance probes. The
	// zero value, node.AlgoAuto, lets each node apply the paper's §3.2
	// index/sort-merge cost crossover.
	JoinAlgo node.Algo
	// BufferPages attaches a per-node LRU buffer pool of that many pages
	// (0 disables caching simulation). With a pool, Metrics additionally
	// reports physical I/O (misses), reproducing the §3.3 buffering
	// effect the paper observed on Teradata.
	BufferPages int
	// CallTimeout bounds every coordinator-to-node call, on any transport:
	// a stuck node yields netsim.ErrTimeout, a retryable failure, instead
	// of hanging the statement. Zero means unbounded.
	CallTimeout time.Duration
	// RetryAttempts is the number of delivery attempts per call for
	// transient failures (injected faults, timeouts) before the
	// coordinator gives up and rolls the statement back. Default 3; with
	// no faults and no timeout configured, retries never trigger. A retry
	// is sent at once, with no backoff.
	RetryAttempts int
	// Faults installs a fault injector between the coordinator and the
	// nodes: every delivery consults its schedule. Nil disables injection.
	// Build one with fault.New (joinview.NewFaultInjector), Arm it when the
	// storm should start, and use Crash/Restart plus Recover to exercise
	// node failures.
	Faults *fault.Injector
	// Durability attaches a write-ahead log and checkpoint store to every
	// node and runs each DML statement under presumed-abort two-phase
	// commit; the transaction (id, participants, undo log) belongs to the
	// statement, the coordinator keeps only the id counter and the
	// decision log. A node can then fail-stop (CrashNode), losing all
	// volatile state, and recover from its own checkpoint + log tail
	// (RestartNode/Recover) instead of a full derived-fragment rebuild. It
	// has no say in whether statements overlap (locks.go).
	Durability bool
	// CheckpointEvery makes each durable node take an automatic checkpoint
	// after that many logged redo records (0 = manual checkpoints only).
	CheckpointEvery int
	// BreakerThreshold enables the per-node circuit breaker: after that
	// many consecutive failed delivery attempts (exhausted retry budgets
	// or timeouts) against one node, the node is marked suspect and every
	// further call to it fails fast with ErrSuspect instead of burning the
	// full retry budget per statement. Recovery (Recover, RestartNode)
	// closes the breaker. Zero disables the breaker (the deterministic
	// chaos schedules assume every delivery is attempted).
	BreakerThreshold int
	// AsyncMaintenance defers DML maintenance into the group-commit queue
	// (asyncq.go): a statement validates, resolves its victims against the
	// effective state and enqueues its logical delta (durably, under
	// Durability); a flush epoch later compacts the queue — insert/delete
	// pairs cancel, repeated keys collapse — and drives one batched
	// pipeline run per table. Reads pick their staleness with ReadView;
	// Flush drains on demand. Off by default — synchronous mode is
	// byte-identical to the seed.
	AsyncMaintenance bool
	// EpochSize triggers a background flush whenever the queue holds at
	// least this many deferred statements (0 = no depth trigger).
	EpochSize int
	// FlushInterval triggers a background flush on this wall-clock period
	// (0 = no timer). With both EpochSize and FlushInterval zero, only
	// explicit Flush, ReadFresh reads, transactions and DDL drain the
	// queue.
	FlushInterval time.Duration
	// MaxQueueDepth bounds the pending-statement count; at the bound
	// admission control sheds new writers with ErrOverload (or stalls
	// them, with OverloadBlock). 0 = unbounded.
	MaxQueueDepth int
	// MaxStaleness bounds the age of the oldest pending entry the same
	// way. 0 = unbounded.
	MaxStaleness time.Duration
	// OverloadBlock makes overloaded writers wait for the flusher instead
	// of failing with ErrOverload.
	OverloadBlock bool
	// LockedReads disables MVCC snapshot reads: every read scope holds
	// shared lockmgr claims on the relations it reads instead of a
	// snapshot, queueing behind concurrent writers (the pre-MVCC behavior).
	// Snapshot reads are on by default wherever statements overlap — iff
	// the delivery stack is concurrent: UseChannels or UseTCP with no fault
	// injector installed (DESIGN.md "Parallel execution"). Kept as the
	// baseline the benchmark's traced pass swaps in to price MVCC
	// (cluster.mvcc_write_tax).
	LockedReads bool
	// UseTCP runs the interconnect over real loopback TCP sockets, each
	// message framed in the link's own envelope codec
	// (internal/netsim/tcp) — a third link under the same transport, so
	// every cluster code path is unchanged. Mutually exclusive with
	// UseChannels.
	UseTCP bool
	// ReplicationFactor keeps K synchronous copies of every hash slot's
	// rows: the primary copy in the owner's fragments plus K-1 follower
	// copies in same-node shadow fragments at the slot's replica nodes.
	// Every base/AR/GI/view write fans out to the followers inside the
	// statement's atomicity scope; a node failure promotes its slots to a
	// surviving follower, so DML keeps committing and reads stay complete
	// with up to K-1 nodes down; ReplicateRepair restores full strength
	// online. Elasticity (AddNode, RebalanceNode, DecommissionNode) moves a
	// slot's owner and keeps its followers. 0 or 1 disables replication
	// (the seed's behavior, byte-identical). Requires 2 <= K <= Nodes
	// otherwise.
	ReplicationFactor int
}

// Cluster is a running parallel RDBMS instance.
type Cluster struct {
	cfg Config
	// cat is the published catalog snapshot — schema, partition map and
	// router. Statements and reads load it once (Catalog); DDL, the
	// migration cutover and failover replace it whole (publish).
	cat   atomic.Pointer[catalog.Catalog]
	st    *stats.Stats
	nodes []*node.DataNode
	// net is the raw delivery stack (direct, channel or TCP link under
	// timeout and fault-injection middleware; its Bypass reaches a
	// node the fault schedule refuses to talk to); tr is the resilient
	// transport over net that all cluster and maintenance code uses; env is
	// the maintenance executor's view of it. A write statement works through
	// its own stmtScope, a per-statement tr + env (durability.go).
	net *netsim.Stack
	tr  *resilientTransport
	env maintain.Env

	// seq numbers mutating sub-requests for idempotent retry; retries
	// counts re-deliveries for Metrics.
	seq     atomic.Uint64
	retries atomic.Int64

	// Two-phase commit state (Durability mode) that outlives a statement:
	// tids numbers transactions, coordLog is the coordinator's forced
	// decision log and decided (guarded by pmu) its logical content,
	// coordMeter the coordinator's own I/O meter. The transaction in
	// progress — its id, participants and undo log — is the statement's
	// stmtScope, not cluster state.
	tids       atomic.Uint64
	pmu        sync.Mutex
	coordMeter *storage.Meter
	coordLog   *wal.Log
	decided    map[uint64]bool

	// dmu guards the degraded-mode state: nodes considered down, queued
	// repair work per node, and nodes awaiting a derived-fragment rebuild.
	dmu         sync.Mutex
	downNodes   map[int]bool
	repairs     map[int][]repair
	needRebuild map[int]bool

	// lm is the coordinator's table-level lock manager, standing in for
	// the paper's transaction-level locking: what each entry point takes
	// from it, and when statements overlap, is locks.go.
	lm *lockmgr.Manager

	// nmu guards the nodes slice against concurrent growth (AddNode runs
	// under the global exclusive lock, but Metrics readers take no locks);
	// nNodes mirrors len(nodes) for lock-free hot-path reads.
	nmu    sync.RWMutex
	nNodes atomic.Int32

	// Elasticity state: mig is the in-flight migration (nil when idle),
	// lastMig the most recent completed or aborted migration's cost
	// accounting, migSeq numbers migrations across the cluster's life,
	// retired marks decommissioned nodes (they stay addressable but own
	// no hash slots).
	migMu   sync.RWMutex
	mig     *migration
	lastMig *MigrationStats
	migSeq  atomic.Uint64
	retired map[int]bool

	// Circuit-breaker state (Config.BreakerThreshold): consecutive
	// delivery failures per node, and the open set.
	brkMu     sync.Mutex
	brkConsec map[int]int
	brkOpen   map[int]bool

	// mcache holds the compiled maintenance plans of the write path,
	// keyed by (table, op) and invalidated by a newly published catalog or
	// statistics drift; pstats counts its hits/misses and the pipeline's
	// per-stage costs.
	mcache *mplan.Cache
	pstats *stats.PipelineCounters

	// Async-maintenance state (asyncq.go): aq is the deferred-delta queue,
	// qstats its counters, flushMu serializes flush epochs (manual Flush
	// vs the background flusher), flusherWG tracks the flusher goroutine.
	aq        *asyncQueue
	qstats    *stats.QueueCounters
	flushMu   sync.Mutex
	flusherWG sync.WaitGroup

	// Replication state (Config.ReplicationFactor > 1): failedOver marks
	// down nodes whose slots were already promoted to surviving followers
	// (the cluster serves complete reads and commits DML around them),
	// staleRepl marks followers evicted from the write fan-out after a
	// failed mirror delivery (skipped until re-replicated), rstats counts
	// mirror/failover/repair activity. The maps are guarded by rmu.
	rmu        sync.Mutex
	failedOver map[int]bool
	staleRepl  map[int]bool
	rstats     *stats.ReplCounters

	// sess is the one online slot copy in flight — a re-replication round
	// or a migration (slotcopy.go) — nil when idle; the live mirror
	// consults it on every applied mutation.
	sess atomic.Pointer[copySession]

	// mvcc is the snapshot-read epoch tracker (mvcc.go), nil when MVCC is
	// off (statements do not overlap — locks.go — or LockedReads).
	// readFence is the one writer-side barrier snapshot readers observe
	// besides the global lock: the migration cutover holds it exclusively
	// while it rewires live fragments outside any epoch's version log.
	mvcc      *epochTracker
	readFence sync.RWMutex

	// lean enables the allocation-lean delivery fast path: no fault
	// injection, durability, call timeout or circuit breaker means a call
	// either succeeds on the first attempt or fails the statement, so the
	// sequence-number envelope, retry loop and in-doubt machinery are
	// skipped entirely (resilience.go).
	lean bool
}

// New builds a cluster. It returns an error for a non-positive node count.
func New(cfg Config) (*Cluster, error) { return newCluster(cfg, nil) }

// newCluster is New with an optional wrapper around each node's handler,
// through which tests make a node hang or fail below every transport.
func newCluster(cfg Config, wrap func(id int, h netsim.Handler) netsim.Handler) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.PageRows <= 0 {
		cfg.PageRows = storage.DefaultPageRows
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 3
	}
	if cfg.ReplicationFactor > 1 && cfg.ReplicationFactor > cfg.Nodes {
		return nil, fmt.Errorf("cluster: ReplicationFactor %d exceeds node count %d", cfg.ReplicationFactor, cfg.Nodes)
	}
	if cfg.ReplicationFactor < 0 {
		return nil, fmt.Errorf("cluster: negative ReplicationFactor %d", cfg.ReplicationFactor)
	}
	c := &Cluster{
		cfg:         cfg,
		st:          stats.New(),
		downNodes:   map[int]bool{},
		repairs:     map[int][]repair{},
		needRebuild: map[int]bool{},
		coordMeter:  &storage.Meter{},
		decided:     map[uint64]bool{},
		lm:          lockmgr.New(),
		mcache:      mplan.NewCache(),
		pstats:      stats.NewPipelineCounters(),
		retired:     map[int]bool{},
		brkConsec:   map[int]int{},
		brkOpen:     map[int]bool{},
		aq:          newAsyncQueue(),
		qstats:      stats.NewQueueCounters(),
		failedOver:  map[int]bool{},
		staleRepl:   map[int]bool{},
		rstats:      stats.NewReplCounters(),
	}
	c.nNodes.Store(int32(cfg.Nodes))
	m := hashpart.Identity(cfg.Nodes)
	if cfg.ReplicationFactor > 1 {
		var err error
		if m, err = m.WithReplicas(cfg.ReplicationFactor); err != nil {
			return nil, err
		}
		m.Epoch++
	}
	b := catalog.New()
	if err := b.UsePartitionMap(m); err != nil {
		return nil, err
	}
	c.publish(b.Build())
	c.coordLog = wal.NewLog(c.coordMeter, cfg.PageRows)
	handlers := make([]netsim.Handler, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := node.New(i, 0)
		if cfg.BufferPages > 0 {
			n.SetBufferPages(cfg.BufferPages)
		}
		if cfg.Durability {
			n.EnableDurability(cfg.PageRows, cfg.CheckpointEvery)
		}
		c.nodes = append(c.nodes, n)
		if handlers[i] = n.Handler(); wrap != nil {
			handlers[i] = wrap(i, handlers[i])
		}
	}
	var link netsim.Link
	switch {
	case cfg.UseTCP && cfg.UseChannels:
		return nil, fmt.Errorf("cluster: UseTCP and UseChannels are mutually exclusive")
	case cfg.UseTCP:
		link = netsimtcp.NewLink()
	case cfg.UseChannels:
		link = netsim.NewChanLink()
	default:
		link = netsim.NewDirectLink()
	}
	mw := netsim.Config{Timeout: cfg.CallTimeout}
	if cfg.Faults != nil {
		mw.Inject = cfg.Faults.Deliver
	}
	var err error
	if c.net, err = netsim.New(link, mw, handlers); err != nil {
		return nil, err
	}
	c.tr = &resilientTransport{Stack: c.net, c: c}
	c.lean = cfg.Faults == nil && !cfg.Durability && cfg.CallTimeout == 0 &&
		cfg.BreakerThreshold <= 0
	if c.net.Concurrent() && !cfg.LockedReads {
		c.mvcc = newEpochTracker()
	}
	c.env = maintain.Env{T: c.tr, Parallel: c.net.Concurrent()}
	if c.mvccOn() {
		c.env.WriteEpoch = c.writeEpoch
		c.env.GCFloor = c.gcFloorFor
	}
	if cfg.AsyncMaintenance && (cfg.EpochSize > 0 || cfg.FlushInterval > 0) {
		c.startFlusher()
	}
	return c, nil
}

// Close stops the background flusher (pending deltas stay queued; a
// durable cluster replays them at recovery) and releases transport
// resources.
func (c *Cluster) Close() {
	c.stopFlusher()
	c.tr.Close()
}

// Catalog returns the published catalog snapshot. It is immutable, so it
// can be read without a lock; DDL (the Create*/Drop* methods) and
// partition-map changes publish a new one.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat.Load() }

// publish makes next the catalog every later statement and read loads. It
// is the one store into c.cat: DDL publishes once its node work succeeded,
// the migration cutover and failover once the data moved, always under
// the global lock or the claims that exclude every statement.
func (c *Cluster) publish(next *catalog.Catalog) { c.cat.Store(next) }

// publishMap publishes the current catalog with partition map m.
func (c *Cluster) publishMap(m hashpart.Map) error {
	b := c.Catalog().Builder()
	if err := b.UsePartitionMap(m); err != nil {
		return err
	}
	c.publish(b.Build())
	return nil
}

// Stats exposes the statistics store.
func (c *Cluster) Stats() *stats.Stats { return c.st }

// NumNodes returns L, the current node count (it grows when AddNode
// expands the cluster).
func (c *Cluster) NumNodes() int { return int(c.nNodes.Load()) }

// allNodes snapshots the node slice (it only ever grows; entries are
// immutable pointers).
func (c *Cluster) allNodes() []*node.DataNode {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	return c.nodes[:len(c.nodes):len(c.nodes)]
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Transport exposes the interconnect (message statistics, primarily).
func (c *Cluster) Transport() netsim.Transport { return c.tr }

// broadcast sends a request to every node, failing on the first error.
func (c *Cluster) broadcast(req any) error {
	_, err := c.tr.Broadcast(netsim.Coordinator, req)
	return err
}

// call sends a request to one node.
func (c *Cluster) call(to int, req any) (any, error) {
	return c.tr.Call(netsim.Coordinator, to, req)
}

// Metrics is a point-in-time reading of the cluster's cost counters.
type Metrics struct {
	// Node has one I/O counter snapshot per data-server node.
	Node []storage.Counts
	// Pool has one buffer-pool snapshot per node (zeros when pools are
	// disabled).
	Pool []buffer.Stats
	// Net is the interconnect's message statistics.
	Net netsim.Stats
	// Retries counts re-deliveries the coordinator performed for
	// transient failures (zero in fault-free runs).
	Retries int64
	// Coord is the coordinator's own I/O (the forced two-phase-commit
	// decision log; zero when durability is off).
	Coord storage.Counts
	// Pipeline is the maintenance pipeline's plan-cache and per-stage
	// counters (see stats.PipelineSnapshot).
	Pipeline stats.PipelineSnapshot
	// Queue is the async maintenance queue's counters and gauges (zeros
	// when AsyncMaintenance is off).
	Queue stats.QueueSnapshot
	// Repl is the replication layer's counters: mirrored writes, follower
	// evictions, failovers and repair rounds (zeros when
	// ReplicationFactor <= 1).
	Repl stats.ReplSnapshot
}

// TotalIOs is the paper's total workload TW: I/Os summed over all nodes.
func (m Metrics) TotalIOs() int64 {
	var sum int64
	for _, c := range m.Node {
		sum += c.IOs()
	}
	return sum
}

// MaxNodeIOs is the paper's response-time proxy: the maximum per-node I/O
// count (work the slowest node must complete).
func (m Metrics) MaxNodeIOs() int64 {
	var mx int64
	for _, c := range m.Node {
		if v := c.IOs(); v > mx {
			mx = v
		}
	}
	return mx
}

// PhysicalIOs sums buffer-pool misses over all nodes: the I/O a cached
// system actually performs. Zero when pools are disabled.
func (m Metrics) PhysicalIOs() int64 {
	var sum int64
	for _, p := range m.Pool {
		sum += p.Misses
	}
	return sum
}

// PoolHits sums buffer-pool hits over all nodes.
func (m Metrics) PoolHits() int64 {
	var sum int64
	for _, p := range m.Pool {
		sum += p.Hits
	}
	return sum
}

// Total sums the per-node counters.
func (m Metrics) Total() storage.Counts {
	var t storage.Counts
	for _, c := range m.Node {
		t = t.Add(c)
	}
	return t
}

// Sub subtracts an earlier snapshot, node by node.
func (m Metrics) Sub(o Metrics) Metrics {
	out := Metrics{
		Node: make([]storage.Counts, len(m.Node)),
		Pool: make([]buffer.Stats, len(m.Pool)),
	}
	// The earlier snapshot may predate an AddNode: missing nodes
	// subtract as zero.
	for i := range m.Node {
		if i < len(o.Node) {
			out.Node[i] = m.Node[i].Sub(o.Node[i])
		} else {
			out.Node[i] = m.Node[i]
		}
	}
	for i := range m.Pool {
		op := buffer.Stats{}
		if i < len(o.Pool) {
			op = o.Pool[i]
		}
		out.Pool[i] = buffer.Stats{
			Hits:      m.Pool[i].Hits - op.Hits,
			Misses:    m.Pool[i].Misses - op.Misses,
			Evictions: m.Pool[i].Evictions - op.Evictions,
		}
	}
	out.Net = netsim.Stats{
		Messages:   m.Net.Messages - o.Net.Messages,
		LocalCalls: m.Net.LocalCalls - o.Net.LocalCalls,
		Envelopes:  m.Net.Envelopes - o.Net.Envelopes,
	}
	out.Retries = m.Retries - o.Retries
	out.Coord = m.Coord.Sub(o.Coord)
	out.Pipeline = m.Pipeline.Sub(o.Pipeline)
	out.Queue = m.Queue.Sub(o.Queue)
	out.Repl = m.Repl.Sub(o.Repl)
	return out
}

// Metrics reads all node meters and the transport counters. Meters are
// atomic, so this is safe alongside the channel transport.
func (c *Cluster) Metrics() Metrics {
	nodes := c.allNodes()
	m := Metrics{
		Node:     make([]storage.Counts, len(nodes)),
		Pool:     make([]buffer.Stats, len(nodes)),
		Net:      c.tr.Stats(),
		Retries:  c.retries.Load(),
		Coord:    c.coordMeter.Snapshot(),
		Pipeline: c.pstats.Snapshot(),
		Queue:    c.qstats.Snapshot(),
		Repl:     c.rstats.Snapshot(),
	}
	w := c.Watermark()
	m.Queue.QueueDepth = w.Pending
	m.Queue.Watermark = w.Epoch
	m.Queue.WatermarkLag = w.Lag
	for i, n := range nodes {
		m.Node[i] = n.Meter().Snapshot()
		m.Pool[i] = n.PoolStatsSnapshot()
	}
	return m
}

// ResetMetrics zeroes every node meter, pool counter and the transport
// counters (cached pages stay resident — warm-cache windows measure the
// buffering effect). Experiments call it after DDL/loading so measurement
// windows start clean.
func (c *Cluster) ResetMetrics() {
	for _, n := range c.allNodes() {
		n.Meter().Reset()
		n.ResetPoolStats()
	}
	c.tr.ResetStats()
	c.retries.Store(0)
	c.coordMeter.Reset()
	c.pstats.Reset()
	c.qstats.Reset()
	c.rstats.Reset()
}

// RefreshStats recomputes exact statistics for the named table from its
// stored fragments (row count, per-column distinct counts).
func (c *Cluster) RefreshStats(table string) error {
	rs := c.beginRead(table)
	t, err := rs.cat.Table(table)
	var rows []types.Tuple
	if err == nil {
		rows, err = rs.unmetered(table)
	}
	rs.end()
	if err != nil {
		return err
	}
	ts, err := stats.Collect(t.Schema, rows)
	if err != nil {
		return err
	}
	c.st.Set(table, ts)
	return nil
}

// gather collects every tuple of a fragment across all nodes, unmetered and
// unlocked: the raw read for callers that already hold the global exclusive
// lock (DDL backfill, derived-fragment rebuilds, recovery). Everyone else
// reads through a readScope (read.go). It requires every node: a degraded
// cluster fails with a node-down error, so derived computations never
// silently run over partial inputs.
func (c *Cluster) gather(frag string) ([]types.Tuple, error) {
	resps, err := c.tr.Broadcast(netsim.Coordinator, node.Scan{Frag: frag, Unmetered: true})
	if err != nil {
		return nil, err
	}
	return tuplesOf(resps), nil
}

// Package fault injects interconnect and node failures into the cluster
// simulator, so the paper's consistency obligation — base relations,
// auxiliary relations, global indexes and join views staying mutually
// consistent under maintenance — can be exercised under the conditions a
// production parallel RDBMS actually faces: lost requests, lost replies,
// duplicated deliveries, transient node errors, slow links and whole-node
// crashes.
//
// An Injector is a deterministic, seeded fault source. A schedule arms it
// with per-delivery probabilities (plus one-shot and crash-after triggers
// for targeted tests); its Deliver method is the netsim stack's injection
// middleware, consulted on every delivery over any link. Everything the injector decides flows
// from its seed, so a chaos run that fails reproduces exactly from the
// same seed.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"joinview/internal/netsim"
)

// Kind enumerates the injectable faults.
type Kind uint8

// Fault kinds.
const (
	// KindDropRequest loses the request before delivery: the destination
	// never sees it. Retryable without ambiguity.
	KindDropRequest Kind = iota
	// KindDropReply delivers and executes the request but loses the
	// response: the caller sees an error while the node applied the work.
	// This is the fault that makes idempotent (sequence-numbered) request
	// handling mandatory.
	KindDropReply
	// KindDuplicate delivers the request twice — a retransmission racing
	// the original. Without dedup a retried insert applies twice.
	KindDuplicate
	// KindDelay delays the delivery by the configured duration, then
	// proceeds normally (models a congested link).
	KindDelay
	// KindHandlerErr fails the call with a transient error before the
	// request executes (models an overloaded or restarting server
	// rejecting work).
	KindHandlerErr
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindDropRequest:
		return "drop-request"
	case KindDropReply:
		return "drop-reply"
	case KindDuplicate:
		return "duplicate"
	case KindDelay:
		return "delay"
	case KindHandlerErr:
		return "handler-error"
	default:
		return "unknown"
	}
}

// ErrTransient marks an injected fault the caller may retry: the failure
// is a property of this delivery, not of the cluster state. Test with
// errors.Is (IsTransient also covers transport timeouts).
var ErrTransient = errors.New("transient fault")

// NodeDownError reports a delivery refused because the destination node
// is crashed. It is not transient: retrying cannot succeed until the node
// restarts.
type NodeDownError struct {
	Node int
}

func (e NodeDownError) Error() string {
	return fmt.Sprintf("fault: node %d is down", e.Node)
}

// IsTransient reports whether err is worth retrying: an injected
// transient fault or a transport timeout (whose outcome is unknown).
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, netsim.ErrTimeout)
}

// IsNodeDown extracts the crashed node from an error chain.
func IsNodeDown(err error) (int, bool) {
	var nd NodeDownError
	if errors.As(err, &nd) {
		return nd.Node, true
	}
	return 0, false
}

// Config is a fault schedule: per-delivery probabilities for each fault
// kind. All probabilities are independent per delivery; the first kind
// drawn (in the order drop-request, drop-reply, duplicate, handler-error,
// delay) wins.
type Config struct {
	// Seed feeds the injector's deterministic random source.
	Seed int64
	// DropRequest, DropReply, Duplicate, HandlerErr, Delay are per-call
	// probabilities in [0,1].
	DropRequest float64
	DropReply   float64
	Duplicate   float64
	HandlerErr  float64
	Delay       float64
	// DelayDuration is how long a KindDelay fault stalls the delivery.
	DelayDuration time.Duration
	// MaxFaults, when positive, caps the number of injected faults: a
	// fault budget, so a storm provably dies down and retries eventually
	// win. Zero means unlimited.
	MaxFaults int
}

// Stats counts injected faults by kind, plus deliveries refused because
// the destination was down.
type Stats struct {
	DropRequest int64
	DropReply   int64
	Duplicate   int64
	Delay       int64
	HandlerErr  int64
	DeniedDown  int64
}

// Total sums the injected transport faults (DeniedDown excluded — those
// are consequences of a crash, not scheduled faults).
func (s Stats) Total() int64 {
	return s.DropRequest + s.DropReply + s.Duplicate + s.Delay + s.HandlerErr
}

// Injector is a deterministic, seeded fault source. The zero value is not
// usable; construct with New. An unarmed injector never injects (crashed
// nodes stay crashed regardless of arming — a crash is cluster state, not
// a per-delivery fault).
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      Config
	armed    bool
	injected int
	st       Stats
	down     map[int]bool

	// oneShots are deterministic forced faults consumed before the
	// probabilistic schedule — the unit-test hook for "exactly this fault
	// on the next delivery".
	oneShots []Kind
	// crashAfter counts deliveries until the scheduled crash of
	// crashNode fires (-1 = no crash scheduled).
	crashAfter int
	crashNode  int

	// Migration-phase trigger points. The migration coordinator announces
	// every phase transition through Phase; chaos tests arm one-shot
	// triggers on phase names, so a crash lands exactly at "copy",
	// "cutover" or "cleanup" of a live rebalance instead of at a counted
	// delivery. phaseCrash maps phase → node to crash; phaseFail holds
	// phases whose announcement itself fails (the coordinator dying at
	// the boundary); phaseLog records every announcement for diagnostics.
	phaseCrash map[string]int
	phaseFail  map[string]bool
	phaseLog   []string
}

// ErrPhaseFail marks a coordinator phase boundary where an armed trigger
// killed the coordinator: the interrupted work must abort (presumed
// abort) or be resumed — ResumeMigrations for a migration phase,
// ResumeMaintenance for an async-flush phase — after the simulated
// restart.
var ErrPhaseFail = errors.New("fault: injected coordinator failure at phase")

// New builds an injector with the given schedule. It starts disarmed so
// DDL and loading run clean; Arm it when the storm should begin.
func New(cfg Config) *Injector {
	return &Injector{
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		cfg:        cfg,
		down:       map[int]bool{},
		crashAfter: -1,
		phaseCrash: map[string]int{},
		phaseFail:  map[string]bool{},
	}
}

// Arm enables the probabilistic schedule.
func (i *Injector) Arm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.armed = true
}

// Disarm stops injecting new faults. Crashed nodes stay down until
// Restart.
func (i *Injector) Disarm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.armed = false
}

// Crash marks a node down: every delivery to it fails with NodeDownError
// until Restart. State at the node is preserved (the model is fail-stop
// with durable storage, not disk loss).
func (i *Injector) Crash(node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.down[node] = true
}

// Restart brings a crashed node back. The cluster's Recover must still
// run to repair any in-doubt work and rebuild derived fragments.
func (i *Injector) Restart(node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.down, node)
}

// Down reports whether a node is crashed.
func (i *Injector) Down(node int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.down[node]
}

// DownNodes lists the crashed nodes.
func (i *Injector) DownNodes() []int {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []int
	for n := range i.down {
		out = append(out, n)
	}
	return out
}

// FailNext forces the next `times` decided deliveries to suffer the given
// fault, regardless of arming or probabilities — the deterministic hook
// for targeted regression tests (e.g. "drop exactly one reply").
func (i *Injector) FailNext(k Kind, times int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for j := 0; j < times; j++ {
		i.oneShots = append(i.oneShots, k)
	}
}

// CrashAfter schedules node to crash after the next `calls` deliveries
// have been decided — landing a crash mid-statement deterministically.
func (i *Injector) CrashAfter(node, calls int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashNode = node
	i.crashAfter = calls
}

// CrashAtPhase arms a one-shot trigger: when the coordinator announces
// the named phase (exactly, or any sub-phase "name:…") — a migration
// phase or an async-flush phase — the given node crashes. Use it to land
// a node crash inside a specific coordinator phase deterministically.
func (i *Injector) CrashAtPhase(phase string, node int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.phaseCrash[phase] = node
}

// FailAtPhase arms a one-shot trigger that makes the named phase
// announcement itself return ErrPhaseFail — the simulator's stand-in for
// the coordinator dying at that boundary, after the preceding phases'
// work (and WAL records) are in place but before any cleanup ran.
func (i *Injector) FailAtPhase(phase string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.phaseFail[phase] = true
}

// Phase is the coordinator's announcement of a phase transition (a
// migration phase, or an async-maintenance flush phase: "enqueue",
// "compact", "flush", "ack"). It fires any armed triggers: node crashes
// take effect immediately (subsequent deliveries to the node fail), and a
// FailAtPhase trigger makes this call return ErrPhaseFail. Announcements
// are recorded and retrievable with PhaseLog. A nil injector is silent,
// so the coordinator can announce unconditionally.
func (i *Injector) Phase(phase string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.phaseLog = append(i.phaseLog, phase)
	match := func(m map[string]int) (string, bool) {
		for name := range m {
			if name == phase || strings.HasPrefix(phase, name+":") {
				return name, true
			}
		}
		return "", false
	}
	if name, ok := match(i.phaseCrash); ok {
		i.down[i.phaseCrash[name]] = true
		delete(i.phaseCrash, name)
	}
	for name := range i.phaseFail {
		if name == phase || strings.HasPrefix(phase, name+":") {
			delete(i.phaseFail, name)
			return fmt.Errorf("%w: %s", ErrPhaseFail, phase)
		}
	}
	return nil
}

// PhaseLog returns every coordinator phase announcement seen so far.
func (i *Injector) PhaseLog() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.phaseLog...)
}

// Stats snapshots the per-kind fault counts.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.st
}

// deniedDown records a delivery refused by a crash.
func (i *Injector) deniedDown() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.st.DeniedDown++
}

// tick advances the scheduled-crash countdown by one delivery; when it
// reaches zero the node goes down, affecting this delivery onward.
func (i *Injector) tick() {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashAfter < 0 {
		return
	}
	if i.crashAfter == 0 {
		i.down[i.crashNode] = true
		i.crashAfter = -1
		return
	}
	i.crashAfter--
}

// decide picks the fault (if any) for one delivery.
func (i *Injector) decide() (Kind, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(i.oneShots) > 0 {
		k := i.oneShots[0]
		i.oneShots = i.oneShots[1:]
		i.count(k)
		return k, true
	}
	if !i.armed {
		return 0, false
	}
	if i.cfg.MaxFaults > 0 && i.injected >= i.cfg.MaxFaults {
		return 0, false
	}
	// One draw per kind, first hit wins, so a given seed produces the
	// same storm regardless of which kinds are enabled downstream.
	probs := [...]struct {
		p float64
		k Kind
	}{
		{i.cfg.DropRequest, KindDropRequest},
		{i.cfg.DropReply, KindDropReply},
		{i.cfg.Duplicate, KindDuplicate},
		{i.cfg.HandlerErr, KindHandlerErr},
		{i.cfg.Delay, KindDelay},
	}
	for _, pk := range probs {
		if pk.p > 0 && i.rng.Float64() < pk.p {
			i.count(pk.k)
			return pk.k, true
		}
	}
	return 0, false
}

func (i *Injector) count(k Kind) {
	i.injected++
	switch k {
	case KindDropRequest:
		i.st.DropRequest++
	case KindDropReply:
		i.st.DropReply++
	case KindDuplicate:
		i.st.Duplicate++
	case KindDelay:
		i.st.Delay++
	case KindHandlerErr:
		i.st.HandlerErr++
	}
}

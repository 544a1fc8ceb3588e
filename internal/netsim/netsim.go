// Package netsim simulates the interconnect of a shared-nothing parallel
// RDBMS. Nodes are addressed 0..L-1; the coordinator (the query dispatcher,
// Teradata's "parsing engine") uses the reserved id Coordinator.
//
// The package has two layers:
//
//   - A Link is the per-node wire: hand a request to node `to`, return its
//     reply. There are three — a direct call on the caller's goroutine
//     (deterministic; the experiments use it so I/O counter traces are
//     exactly reproducible), an inbox goroutine per node (node-level
//     parallelism is real), and loopback sockets (internal/netsim/tcp).
//   - The Stack is the one transport over any link. Everything that is not
//     the wire lives here exactly once: SEND/envelope accounting,
//     handler-panic recovery, the complete-and-report broadcast, and
//     latency, per-call timeout and fault injection as middleware that
//     composes with every link.
//
// Following the paper's Figure 2 ("the dashed lines represent cases in
// which the network communication is conceptual and no real network
// communication happens"), a call whose source and destination coincide
// is not counted as a message.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator is the reserved source id for calls that originate at the
// cluster coordinator rather than at a data-server node.
const Coordinator = -1

// ErrTimeout marks a call that exceeded the transport's per-call timeout:
// the destination node never picked the request up, or picked it up and
// failed to answer in time. The outcome at the destination is unknown —
// callers that retry must be prepared for the request to have been applied
// (see the sequence-number dedup in internal/node).
var ErrTimeout = errors.New("netsim: call timed out")

// ErrClosed marks a call issued after the transport was shut down.
var ErrClosed = errors.New("netsim: transport closed")

// Handler processes one request at a node and returns a response.
type Handler func(req any) (any, error)

// Transport moves requests between nodes.
type Transport interface {
	// Call delivers req from node `from` to node `to` and returns the
	// response. `from` may be Coordinator.
	Call(from, to int, req any) (any, error)
	// Broadcast delivers req from `from` to every node, returning the
	// responses indexed by node. Every delivery is attempted even when
	// some fail: slots of failed nodes are nil and the returned error
	// joins every per-node failure (each wrapped with its node id), so a
	// half-failed broadcast is observable and recoverable rather than
	// silently truncated.
	Broadcast(from int, req any) ([]any, error)
	// NumNodes returns the cluster size L.
	NumNodes() int
	// Stats returns message counters.
	Stats() Stats
	// ResetStats zeroes message counters.
	ResetStats()
	// Close releases transport resources (node goroutines, sockets).
	Close()
}

// Stats counts interconnect traffic.
type Stats struct {
	// Messages is the number of point-to-point sends between distinct
	// endpoints (a broadcast to L nodes from a node counts L-1; a reply is
	// not counted separately — the paper's SEND covers a request/response
	// exchange). Batched requests implementing Envelope count one logical
	// SEND per carried entry, so the paper's cost figures are independent
	// of how entries are packed into physical deliveries.
	Messages int64
	// LocalCalls counts deliveries where source == destination (free).
	LocalCalls int64
	// Envelopes counts physical deliveries (one per Call / per broadcast
	// destination), regardless of how many logical messages each carried.
	// Messages/Envelopes is the batching factor.
	Envelopes int64
}

// Envelope is implemented by batched requests that pack several logical
// messages into one physical delivery. LogicalCounts returns how many
// logical SENDs (source != destination) and free self-deliveries the
// envelope represents when delivered from `from` to `to`; the stack uses
// it in place of the default one-message-per-call accounting, so the
// paper's per-entry SEND counters are preserved under batching.
type Envelope interface {
	LogicalCounts(from, to int) (messages, local int64)
}

// Link is the wire under the Stack: one request to one node, one reply.
// Implementations serialize the requests of one node (the data nodes rely
// on it) and know nothing of counting, broadcasts, timeouts or faults.
type Link interface {
	// Send hands req to node `to` and returns its reply. sent reports
	// whether the node can have seen the request: false means the link
	// refused it (closed, dial or encode failure) and err says why; true
	// with a non-nil err is the handler's own error or a lost reply.
	Send(to int, req any) (resp any, sent bool, err error)
	// AddNode registers one more node and returns its id (ids are dense,
	// starting at 0).
	AddNode(h Handler) (int, error)
	// Concurrent reports whether nodes execute off the caller's goroutine,
	// so that Sends to different nodes overlap.
	Concurrent() bool
	// Close releases the link's goroutines and sockets; later Sends fail
	// with ErrClosed. It returns once every handler already running has
	// returned, and waits on nothing else: a reply that arrives after
	// Close began goes nowhere.
	Close()
}

// Config is the Stack's middleware. The zero value is a bare transport.
type Config struct {
	// Latency delays every inter-node delivery by that wall-clock duration
	// (self-deliveries stay free, as in the paper's Figure 2). It models
	// the SEND cost the paper treats as "much smaller than the time spent
	// on SEARCH, FETCH, and INSERT", for experiments that test what
	// happens when it is not. The deliveries of a concurrent broadcast
	// overlap, so it pays one latency, not L.
	Latency time.Duration
	// Timeout bounds every delivery: a node that does not answer in time
	// yields ErrTimeout instead of blocking the caller forever (zero means
	// unbounded). A timed-out request may still be executed by the node
	// later — exactly the ambiguity a real interconnect has — so retrying
	// callers must deduplicate (see internal/node's sequence numbers).
	Timeout time.Duration
	// Inject, when set, decides the fate of every delivery: it runs
	// deliver zero, one or two times (drop, pass, duplicate) and returns
	// what the caller sees (fault.Injector.Deliver). Broadcasts then go one
	// destination at a time, so each destination gets its own draw in a
	// fixed order. Bypass skips it.
	Inject func(to int, req any, deliver func() (any, error)) (any, error)
}

// Stack is the transport: a Link plus everything above the wire.
type Stack struct {
	link   Link
	cfg    Config
	n      atomic.Int32
	closed atomic.Bool

	messages  atomic.Int64
	local     atomic.Int64
	envelopes atomic.Int64
}

// New builds the transport over link with one node per handler.
func New(link Link, cfg Config, handlers []Handler) (*Stack, error) {
	s := &Stack{link: link, cfg: cfg}
	for _, h := range handlers {
		if _, err := s.AddNode(h); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// NewDirect builds a bare transport over the direct link.
func NewDirect(handlers []Handler) *Stack {
	s, _ := New(NewDirectLink(), Config{}, handlers) // a fresh in-process link accepts every node
	return s
}

// NewChan builds a bare transport over the inbox-goroutine link.
func NewChan(handlers []Handler) *Stack {
	s, _ := New(NewChanLink(), Config{}, handlers) // a fresh in-process link accepts every node
	return s
}

// AddNode grows the cluster online by one node and returns its id. A
// panic in h surfaces as that call's error instead of taking the process
// (or the node's goroutine) down.
func (s *Stack) AddNode(h Handler) (int, error) {
	id, err := s.link.AddNode(func(req any) (resp any, err error) {
		defer func() {
			if r := recover(); r != nil {
				resp, err = nil, fmt.Errorf("netsim: handler panic: %v", r)
			}
		}()
		return h(req)
	})
	if err != nil {
		return 0, err
	}
	s.n.Store(int32(id + 1))
	return id, nil
}

// Call implements Transport.
func (s *Stack) Call(from, to int, req any) (any, error) {
	if err := s.checkDest(to); err != nil {
		return nil, err
	}
	if s.cfg.Inject == nil {
		return s.send(from, to, req)
	}
	return s.cfg.Inject(to, req, func() (any, error) { return s.send(from, to, req) })
}

// Bypass is Call without the injector: crash/restart control traffic must
// reach a node the fault schedule refuses to talk to.
func (s *Stack) Bypass(from, to int, req any) (any, error) {
	if err := s.checkDest(to); err != nil {
		return nil, err
	}
	return s.send(from, to, req)
}

func (s *Stack) checkDest(to int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if n := s.NumNodes(); to < 0 || to >= n {
		return fmt.Errorf("netsim: destination %d out of range [0,%d)", to, n)
	}
	return nil
}

// send is one delivery below the injector: latency, then the timeout
// around the link.
func (s *Stack) send(from, to int, req any) (any, error) {
	if s.cfg.Latency > 0 && from != to {
		time.Sleep(s.cfg.Latency)
	}
	if s.cfg.Timeout <= 0 {
		return s.deliver(from, to, req)
	}
	// The abandoned goroutine of a timed-out call ends when the link
	// answers it (the node's handler returns, or Close fails the send).
	done := make(chan result, 1)
	go func() {
		resp, err := s.deliver(from, to, req)
		done <- result{resp, err}
	}()
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.resp, r.err
	case <-timer.C:
		return nil, fmt.Errorf("netsim: node %d did not answer: %w", to, ErrTimeout)
	}
}

// deliver crosses the link and counts the envelope iff the link accepted
// the request.
func (s *Stack) deliver(from, to int, req any) (any, error) {
	resp, sent, err := s.link.Send(to, req)
	if !sent {
		return nil, err
	}
	s.envelopes.Add(1)
	if env, ok := req.(Envelope); ok {
		msgs, local := env.LogicalCounts(from, to)
		s.messages.Add(msgs)
		s.local.Add(local)
	} else if from == to {
		s.local.Add(1)
	} else {
		s.messages.Add(1)
	}
	return resp, err
}

// Concurrent reports whether deliveries to different nodes may overlap: the
// link runs nodes off the caller's goroutine and no injector is installed
// (fault draws are consumed in arrival order, so a schedule is reproducible
// only one delivery at a time). It is the stack's one answer to "which
// concurrency control runs": its own Broadcast fans out concurrently iff it
// holds, and the cluster lets statements overlap iff it holds.
func (s *Stack) Concurrent() bool { return s.link.Concurrent() && s.cfg.Inject == nil }

// Broadcast implements Transport. Deliveries overlap when the stack is
// Concurrent.
func (s *Stack) Broadcast(from int, req any) ([]any, error) {
	n := s.NumNodes()
	out, errs := make([]any, n), make([]error, n)
	_ = ScatterFunc(s.Concurrent(), n, func(to int) error {
		resp, err := s.Call(from, to, req)
		if err != nil {
			errs[to] = fmt.Errorf("netsim: broadcast to node %d: %w", to, err)
			return nil // complete and report: the failure must not stop the fan-out
		}
		out[to] = resp
		return nil
	})
	return out, errors.Join(errs...)
}

// NumNodes implements Transport.
func (s *Stack) NumNodes() int { return int(s.n.Load()) }

// Stats implements Transport.
func (s *Stack) Stats() Stats {
	return Stats{
		Messages:   s.messages.Load(),
		LocalCalls: s.local.Load(),
		Envelopes:  s.envelopes.Load(),
	}
}

// ResetStats implements Transport.
func (s *Stack) ResetStats() {
	s.messages.Store(0)
	s.local.Store(0)
	s.envelopes.Store(0)
}

// Close implements Transport. Calls after Close fail with ErrClosed on
// every link; a Call concurrent with Close either completes or observes
// ErrClosed.
func (s *Stack) Close() {
	s.closed.Store(true)
	s.link.Close()
}

// directLink invokes the destination handler on the caller's goroutine.
// The per-node mutex keeps a node's requests serial even when a timed-out
// call's handler is still running behind its caller.
type directLink struct {
	nodes []*directNode
}

type directNode struct {
	mu     sync.Mutex
	h      Handler
	closed bool
}

// NewDirectLink returns the deterministic in-process link. AddNode must
// not race other use of the link (the cluster grows topology under its
// global exclusive lock).
func NewDirectLink() Link { return &directLink{} }

func (d *directLink) Send(to int, req any) (any, bool, error) {
	n := d.nodes[to]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, false, ErrClosed
	}
	resp, err := n.h(req)
	return resp, true, err
}

func (d *directLink) AddNode(h Handler) (int, error) {
	d.nodes = append(d.nodes, &directNode{h: h})
	return len(d.nodes) - 1, nil
}

func (d *directLink) Concurrent() bool { return false }

// Close takes each node's mutex, so it waits for a handler still running
// behind a timed-out call.
func (d *directLink) Close() {
	for _, n := range d.nodes {
		n.mu.Lock()
		n.closed = true
		n.mu.Unlock()
	}
}

// chanLink runs each node as a goroutine draining a buffered inbox;
// requests carry reply channels. Handlers therefore execute serially per
// node but concurrently across nodes, which models the parallel DBMS's
// per-node work queues.
type chanLink struct {
	// mu guards closed, the inbox slice and every send on an inbox:
	// senders hold the read lock, AddNode and Close the write lock, so a
	// Send racing a Close sees `closed` instead of panicking with a send
	// on a closed channel.
	mu      sync.RWMutex
	closed  bool
	inboxes []chan envelope
	wg      sync.WaitGroup

	// replies recycles reply channels: Send always drains the single
	// buffered reply before pooling the channel.
	replies sync.Pool
}

type envelope struct {
	req   any
	reply chan result
}

type result struct {
	resp any
	err  error
}

// NewChanLink returns the goroutine-per-node link.
func NewChanLink() Link { return &chanLink{} }

func (c *chanLink) Send(to int, req any) (any, bool, error) {
	reply, _ := c.replies.Get().(chan result)
	if reply == nil {
		reply = make(chan result, 1)
	}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.replies.Put(reply) // never entered an inbox, so never written
		return nil, false, ErrClosed
	}
	c.inboxes[to] <- envelope{req: req, reply: reply}
	c.mu.RUnlock()
	r := <-reply
	c.replies.Put(reply)
	return r.resp, true, r.err
}

func (c *chanLink) AddNode(h Handler) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	// 128 in-flight requests per node before senders block: deep enough
	// that concurrent sessions and broadcasts never stall on enqueue.
	inbox := make(chan envelope, 128)
	c.inboxes = append(c.inboxes, inbox)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for env := range inbox {
			resp, err := h(env.req)
			env.reply <- result{resp: resp, err: err}
		}
	}()
	return len(c.inboxes) - 1, nil
}

func (c *chanLink) Concurrent() bool { return true }

// Close stops the node goroutines once they have answered every request
// already in an inbox.
func (c *chanLink) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, inbox := range c.inboxes {
		close(inbox)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

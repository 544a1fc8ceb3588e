// Package tcp is the real-socket netsim.Link: every node listens on a
// loopback TCP port, requests and responses travel as gob-encoded
// envelopes, and the coordinator keeps a small per-destination connection
// pool. It exists to prove the engine's envelope encoding works off
// in-process channels — the cluster code is byte-for-byte the same over
// the direct, channel and TCP links, and everything above the wire
// (accounting, broadcast, latency, timeout, fault injection) is the one
// netsim.Stack.
//
// A handler's error crosses the wire as its message plus a small code for
// the sentinels callers match with errors.Is (node.ErrNoFragment).
package tcp

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"

	"joinview/internal/expr"
	"joinview/internal/netsim"
	"joinview/internal/node"
)

func init() {
	for _, r := range node.AllRequests() {
		gob.Register(r)
	}
	for _, r := range node.AllResponses() {
		gob.Register(r)
	}
	// Predicate trees ride inside FindMatching as expr.Expr values.
	gob.Register(expr.Col{})
	gob.Register(expr.Const{})
	gob.Register(expr.Cmp{})
	gob.Register(expr.And{})
	gob.Register(expr.Or{})
	gob.Register(expr.Not{})
}

// wireReq frames one request.
type wireReq struct {
	Req any
}

// wireResp frames one response; Err is the handler error's message ("" =
// success) and Code an index into sentinels (0 = none).
type wireResp struct {
	Resp any
	Err  string
	Code uint8
}

// sentinels are the node-raised errors that keep their identity across
// the wire; a wire code is the position here plus one.
var sentinels = []error{node.ErrNoFragment}

// wireError is a handler error rebuilt on the client side.
type wireError struct {
	msg      string
	sentinel error // nil when the error carried no code
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func encodeErr(err error) wireResp {
	w := wireResp{Err: err.Error()}
	for i, s := range sentinels {
		if errors.Is(err, s) {
			w.Code = uint8(i + 1)
		}
	}
	return w
}

func decodeErr(w wireResp) error {
	e := &wireError{msg: w.Err}
	if c := int(w.Code); c >= 1 && c <= len(sentinels) {
		e.sentinel = sentinels[c-1]
	}
	return e
}

// server is one node's listening side. The handler mutex serializes
// request execution per node — the same discipline the channel link's
// per-node goroutine provides — while different nodes execute
// concurrently. It records the connections it accepted so that close
// ends them itself instead of waiting for each peer to hang up.
type server struct {
	ln net.Listener
	h  netsim.Handler
	mu sync.Mutex // serializes handler execution

	connMu sync.Mutex // guards conns and closed
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func (s *server) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			dec := gob.NewDecoder(conn)
			enc := gob.NewEncoder(conn)
			for {
				var req wireReq
				if err := dec.Decode(&req); err != nil {
					return // peer closed, server closed or stream broken
				}
				s.mu.Lock()
				resp, err := s.h(req.Req)
				s.mu.Unlock()
				w := wireResp{Resp: resp}
				if err != nil {
					w = encodeErr(err)
				}
				if err := enc.Encode(w); err != nil {
					return
				}
			}
		}()
	}
}

// track records an accepted connection and counts its goroutine; it
// refuses once close has begun.
func (s *server) track(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	c.Close()
}

// close stops accepting, closes every accepted connection and waits for
// their goroutines. A goroutine blocked reading a request returns at
// once; one running a handler returns when the handler does, since its
// reply has nowhere to go.
func (s *server) close() {
	s.ln.Close()
	s.connMu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// conn is one pooled client connection with its sticky codec pair (gob
// streams carry type dictionaries, so encoder and decoder must live as
// long as the connection).
type conn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
}

// pool is a per-destination free list. Checkout is exclusive: one in-flight
// request per connection, strict request/response lockstep.
type pool struct {
	mu     sync.Mutex
	idle   []*conn
	addr   string
	closed bool
}

func (p *pool) get() (*conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	addr := p.addr
	p.mu.Unlock()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", addr, err)
	}
	return &conn{c: nc, enc: gob.NewEncoder(nc), dec: gob.NewDecoder(nc)}, nil
}

// put returns a connection to the pool, or closes it once the pool is
// closed: a timed-out call's late reply can arrive after Close.
func (p *pool) put(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	for _, c := range p.idle {
		c.c.Close()
	}
	p.idle = nil
	p.mu.Unlock()
}

// link is the TCP implementation of netsim.Link.
type link struct {
	mu      sync.RWMutex // guards servers/pools growth and closed
	servers []*server
	pools   []*pool
	closed  bool
}

// NewLink returns an empty loopback-TCP link; each AddNode starts one
// listener.
func NewLink() netsim.Link { return &link{} }

func (t *link) AddNode(h netsim.Handler) (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("tcp: listen: %w", err)
	}
	s := &server{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	go s.serve()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		ln.Close()
		return 0, netsim.ErrClosed
	}
	t.servers = append(t.servers, s)
	t.pools = append(t.pools, &pool{addr: ln.Addr().String()})
	return len(t.servers) - 1, nil
}

// Send reports a request as sent once it is fully encoded onto a
// connection; a reply that fails to come back is a lost reply.
func (t *link) Send(to int, req any) (any, bool, error) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return nil, false, netsim.ErrClosed
	}
	p := t.pools[to]
	t.mu.RUnlock()

	c, err := p.get()
	if err != nil {
		return nil, false, err
	}
	if err := c.enc.Encode(wireReq{Req: req}); err != nil {
		c.c.Close()
		return nil, false, fmt.Errorf("tcp: send to node %d: %w", to, err)
	}
	var w wireResp
	if err := c.dec.Decode(&w); err != nil {
		c.c.Close()
		return nil, true, fmt.Errorf("tcp: receive from node %d: %w", to, err)
	}
	p.put(c)
	if w.Err != "" {
		return nil, true, decodeErr(w)
	}
	return w.Resp, true, nil
}

func (t *link) Concurrent() bool { return true }

// Close closes listeners, pooled client connections and every connection
// a server accepted, so it waits on no peer: only on handlers that are
// still running.
func (t *link) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	servers, pools := t.servers, t.pools
	t.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	for _, s := range servers {
		s.close()
	}
}

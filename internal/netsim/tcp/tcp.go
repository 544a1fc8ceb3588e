// Package tcp is the real-socket netsim.Link: every node listens on a
// loopback TCP port, requests and responses travel as length-prefixed
// frames in a hand-written envelope codec (codec.go) whose rows are the
// internal/types row format, and the coordinator keeps a per-destination
// connection pool capped at maxConns. It exists to prove the engine's
// envelopes work off in-process channels — the cluster code is
// byte-for-byte the same over the direct, channel and TCP links, and
// everything above the wire (accounting, broadcast, latency, timeout,
// fault injection) is the one netsim.Stack.
//
// A handler's error crosses the wire as its message plus a small code for
// the sentinels callers match with errors.Is (node.ErrNoFragment).
package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"joinview/internal/netsim"
	"joinview/internal/node"
)

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

// server is one node's listening side. The handler mutex serializes
// request execution per node — the same discipline the channel link's
// per-node goroutine provides — while different nodes execute
// concurrently. It records the connections it accepted so that close
// ends them itself instead of waiting for each peer to hang up.
type server struct {
	ln net.Listener
	h  netsim.Handler
	mu sync.Mutex // serializes handler execution

	connMu   sync.Mutex // guards conns, accepted and closed
	conns    map[net.Conn]struct{}
	accepted int // connections accepted over the server's life
	closed   bool
	wg       sync.WaitGroup
}

// serve accepts connections until the listener is closed. Any other
// Accept error (the process out of file descriptors, say) is waited out
// with a backoff, so a node does not stop serving over a transient one.
func (s *server) serve() {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !s.track(conn) {
			conn.Close()
			return
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// handle answers one connection's requests in order until it closes. A
// request that does not decode, or a response that does not encode, is
// answered with an error frame: the length prefix keeps the stream in
// step, so the connection stays usable.
func (s *server) handle(conn net.Conn) {
	rd := frameReader{r: bufio.NewReader(conn)}
	var w writer
	for {
		body, err := rd.next()
		if err != nil {
			return // peer closed, server closed or stream broken
		}
		req, err := rd.dec.request(body)
		rd.trim()
		var resp any
		if err == nil {
			s.mu.Lock()
			resp, err = s.h(req)
			s.mu.Unlock()
		}
		frame, err := w.response(resp, err)
		if err != nil {
			frame, _ = w.response(nil, err) // an error frame always encodes
		}
		_, err = conn.Write(frame)
		w.trim()
		if err != nil {
			return
		}
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
	s.accepted++
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

// conn is one pooled client connection with its frame buffers, which
// live as long as the connection so a call allocates none.
type conn struct {
	c  net.Conn
	rd frameReader
	w  writer
}

// maxConns caps the connections a pool holds open to one destination.
// The server runs one handler at a time per node, so more connections add
// no throughput; they only spend file descriptors, which a statement that
// scatters one call per delta row would otherwise exhaust.
const maxConns = 16

// pool is a per-destination set of at most maxConns connections.
// Checkout is exclusive: one in-flight request per connection, strict
// request/response lockstep. A caller that finds none idle and the cap
// reached waits for one to come back.
type pool struct {
	addr  string
	idle  chan *conn    // returned connections; never more than maxConns
	slots chan struct{} // one token per open connection
	done  chan struct{} // closed by close: waiters give up

	mu     sync.Mutex // orders put against close
	closed bool
}

func newPool(addr string) *pool {
	return &pool{
		addr:  addr,
		idle:  make(chan *conn, maxConns),
		slots: make(chan struct{}, maxConns),
		done:  make(chan struct{}),
	}
}

// get checks out an idle connection, dials one while the pool is under
// its cap, or waits for one to be returned; it fails with ErrClosed once
// the pool is closed.
func (p *pool) get() (*conn, error) {
	select {
	case <-p.done:
		return nil, netsim.ErrClosed
	case c := <-p.idle:
		return c, nil
	default:
	}
	select {
	case <-p.done:
		return nil, netsim.ErrClosed
	case c := <-p.idle:
		return c, nil
	case p.slots <- struct{}{}:
		nc, err := net.Dial("tcp", p.addr)
		if err != nil {
			<-p.slots
			return nil, fmt.Errorf("tcp: dial %s: %w", p.addr, err)
		}
		return &conn{c: nc, rd: frameReader{r: bufio.NewReader(nc)}}, nil
	}
}

// put returns a connection to the pool, or closes it once the pool is
// closed: a timed-out call's late reply can arrive after Close.
func (p *pool) put(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.discard(c)
		return
	}
	p.idle <- c
}

// discard closes a connection whose stream is broken and frees its slot.
func (p *pool) discard(c *conn) {
	c.c.Close()
	<-p.slots
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	for {
		select {
		case c := <-p.idle:
			p.discard(c)
		default:
			return
		}
	}
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
	t.pools = append(t.pools, newPool(ln.Addr().String()))
	return len(t.servers) - 1, nil
}

// Send reports a request as sent once its frame is written; a reply that
// fails to come back is a lost reply. A request that does not encode
// never reaches the connection, which goes back to the pool unused.
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
	frame, err := c.w.request(req)
	if err != nil {
		p.put(c)
		return nil, false, fmt.Errorf("tcp: send to node %d: %w", to, err)
	}
	_, err = c.c.Write(frame)
	c.w.trim()
	if err != nil {
		p.discard(c)
		return nil, false, fmt.Errorf("tcp: send to node %d: %w", to, err)
	}
	body, err := c.rd.next()
	if err != nil {
		p.discard(c)
		return nil, true, fmt.Errorf("tcp: receive from node %d: %w", to, err)
	}
	resp, err := c.rd.dec.response(body)
	c.rd.trim()
	p.put(c)
	if err != nil {
		var we *wireError
		if !errors.As(err, &we) {
			err = fmt.Errorf("tcp: receive from node %d: %w", to, err)
		}
		return nil, true, err
	}
	return resp, true, nil
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

package netsim_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"joinview/internal/fault"
	"joinview/internal/netsim"
	"joinview/internal/netsim/tcp"
)

// This file is the transport contract, checked once over every cell of
// {direct, chan, tcp} × {bare, +latency, +timeout, +injector}: each test
// below is one behaviour, run in all twelve cells as
// Test<Behaviour>/<link>/<middleware>.

var links = []struct {
	name string
	new  func() netsim.Link
}{
	{"direct", netsim.NewDirectLink},
	{"chan", netsim.NewChanLink},
	{"tcp", tcp.NewLink},
}

// cell is one transport under test; inj is its (disarmed) injector in the
// +injector column and nil elsewhere.
type cell struct {
	*netsim.Stack
	link       string
	concurrent bool
	inj        *fault.Injector
}

// run builds cfg's transport over a fresh link l and runs fn on it.
func run(t *testing.T, l int, cfg netsim.Config, inj *fault.Injector, hs func() []netsim.Handler, fn func(t *testing.T, c cell)) {
	link := links[l].new()
	tr, err := netsim.New(link, cfg, hs())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fn(t, cell{Stack: tr, link: links[l].name, concurrent: link.Concurrent(), inj: inj})
}

// forEachLink builds cfg's transport over every link.
func forEachLink(t *testing.T, cfg netsim.Config, hs func() []netsim.Handler, fn func(t *testing.T, c cell)) {
	for l := range links {
		t.Run(links[l].name, func(t *testing.T) { run(t, l, cfg, nil, hs, fn) })
	}
}

// forEachCell runs fn in all twelve cells. The middleware settings are
// ones a healthy call never trips over: a short latency, a timeout far
// above any handler's run time, an injector with nothing armed.
func forEachCell(t *testing.T, hs func() []netsim.Handler, fn func(t *testing.T, c cell)) {
	for l := range links {
		t.Run(links[l].name, func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 1})
			for _, mw := range []struct {
				name string
				cfg  netsim.Config
				inj  *fault.Injector
			}{
				{"bare", netsim.Config{}, nil},
				{"latency", netsim.Config{Latency: 200 * time.Microsecond}, nil},
				{"timeout", netsim.Config{Timeout: 30 * time.Second}, nil},
				{"injector", netsim.Config{Inject: inj.Deliver}, inj},
			} {
				t.Run(mw.name, func(t *testing.T) { run(t, l, mw.cfg, mw.inj, hs, fn) })
			}
		})
	}
}

// echo answers "node<i>:<req>", fails on "boom" and panics on "panic".
func echo(n int) func() []netsim.Handler {
	return func() []netsim.Handler {
		hs := make([]netsim.Handler, n)
		for i := range hs {
			i := i
			hs[i] = func(req any) (any, error) {
				switch req {
				case "boom":
					return nil, errors.New("boom")
				case "panic":
					panic("kaboom")
				}
				return fmt.Sprintf("node%d:%v", i, req), nil
			}
		}
		return hs
	}
}

// echoBadNode is echo(n) with node bad refusing everything.
func echoBadNode(n, bad int) func() []netsim.Handler {
	return func() []netsim.Handler {
		hs := echo(n)()
		hs[bad] = func(any) (any, error) { return nil, fmt.Errorf("node %d refuses", bad) }
		return hs
	}
}

func TestCall(t *testing.T) {
	forEachCell(t, echo(4), func(t *testing.T, tr cell) {
		resp, err := tr.Call(netsim.Coordinator, 2, "hi")
		if err != nil || resp != "node2:hi" {
			t.Fatalf("Call = %v, %v", resp, err)
		}
		if _, err := tr.Call(0, 99, "hi"); err == nil {
			t.Error("out-of-range destination should fail")
		}
		if _, err := tr.Call(0, -1, "hi"); err == nil {
			t.Error("negative destination should fail")
		}
		if _, err := tr.Call(0, 1, "boom"); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("handler error must propagate with its message, got %v", err)
		}
		if tr.NumNodes() != 4 {
			t.Error("NumNodes wrong")
		}
	})
}

func TestBroadcast(t *testing.T) {
	forEachCell(t, echo(5), func(t *testing.T, tr cell) {
		resps, err := tr.Broadcast(1, "x")
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != 5 {
			t.Fatalf("got %d responses", len(resps))
		}
		for i, r := range resps {
			if r != fmt.Sprintf("node%d:x", i) {
				t.Errorf("response %d = %v", i, r)
			}
		}
	})
}

func TestMessageAccounting(t *testing.T) {
	forEachCell(t, echo(4), func(t *testing.T, tr cell) {
		tr.Call(0, 0, "local")             // self-delivery: free
		tr.Call(0, 1, "remote")            // 1 message
		tr.Call(netsim.Coordinator, 2, "") // 1 message
		tr.Broadcast(1, "b")               // 3 messages (node 1 to itself is free)
		want := netsim.Stats{Messages: 5, LocalCalls: 2, Envelopes: 7}
		if s := tr.Stats(); s != want {
			t.Errorf("Stats = %+v, want %+v", s, want)
		}
		tr.ResetStats()
		if s := tr.Stats(); s != (netsim.Stats{}) {
			t.Errorf("ResetStats left %+v", s)
		}
	})
}

func TestBroadcastErrorReportsNode(t *testing.T) {
	forEachCell(t, echoBadNode(3, 1), func(t *testing.T, tr cell) {
		_, err := tr.Broadcast(netsim.Coordinator, "x")
		if err == nil || !strings.Contains(err.Error(), "netsim: broadcast to node 1") {
			t.Fatalf("got %v, want the failure wrapped with its node id", err)
		}
	})
}

// TestBroadcastCompletesPastErrors pins the complete-and-report contract:
// every delivery is attempted, the surviving slots are filled, and the
// per-node failures are joined — a half-failed broadcast must not silently
// skip the remaining nodes.
func TestBroadcastCompletesPastErrors(t *testing.T) {
	forEachCell(t, echoBadNode(4, 1), func(t *testing.T, tr cell) {
		resps, err := tr.Broadcast(netsim.Coordinator, "x")
		if err == nil {
			t.Fatal("broadcast must report the failure")
		}
		for _, want := range []int{0, 2, 3} {
			if resps[want] != fmt.Sprintf("node%d:x", want) {
				t.Errorf("node %d response = %v: delivery must complete despite node 1's error", want, resps[want])
			}
		}
		if resps[1] != nil {
			t.Errorf("failed node's slot = %v, want nil", resps[1])
		}
	})
}

// TestEnvelopeCountedIffAccepted: an envelope is counted exactly when the
// link accepted the request — a handler that then fails still received
// it; a bad destination, a closed transport, a request the wire cannot
// encode and a request the injector dropped never left.
func TestEnvelopeCountedIffAccepted(t *testing.T) {
	type unregistered struct{ X int } // not a message the TCP codec knows
	forEachCell(t, echo(2), func(t *testing.T, tr cell) {
		envelopes := func() int64 { return tr.Stats().Envelopes }
		if _, err := tr.Call(0, 1, "boom"); err == nil || envelopes() != 1 {
			t.Errorf("handler error: err %v, %d envelopes, want an error and 1", err, envelopes())
		}
		if _, err := tr.Call(0, 7, "x"); err == nil || envelopes() != 1 {
			t.Errorf("bad destination: err %v, %d envelopes, want an error and still 1", err, envelopes())
		}
		if tr.link == "tcp" {
			if _, err := tr.Call(0, 1, unregistered{1}); err == nil || envelopes() != 1 {
				t.Errorf("unencodable request: err %v, %d envelopes, want an error and still 1", err, envelopes())
			}
			if resp, err := tr.Call(0, 1, "ok"); err != nil || resp != "node1:ok" {
				t.Fatalf("node unusable after an encode failure: %v, %v", resp, err)
			}
			tr.ResetStats()
			tr.Call(0, 1, "boom")
		}
		if tr.inj != nil {
			tr.inj.FailNext(fault.KindDropRequest, 1)
			if _, err := tr.Call(0, 1, "x"); !fault.IsTransient(err) || envelopes() != 1 {
				t.Errorf("dropped request: err %v, %d envelopes, want transient and still 1", err, envelopes())
			}
			tr.inj.FailNext(fault.KindDropReply, 1)
			if _, err := tr.Call(0, 1, "x"); !fault.IsTransient(err) || envelopes() != 2 {
				t.Errorf("dropped reply: err %v, %d envelopes, want transient and 2", err, envelopes())
			}
			tr.inj.FailNext(fault.KindDuplicate, 1)
			if _, err := tr.Call(0, 1, "x"); err != nil || envelopes() != 4 {
				t.Errorf("duplicate: err %v, %d envelopes, want nil and 4", err, envelopes())
			}
			tr.ResetStats()
			tr.Call(0, 1, "boom")
		}
		tr.Close()
		tr.Close() // idempotent
		if _, err := tr.Call(0, 1, "x"); !errors.Is(err, netsim.ErrClosed) || envelopes() != 1 {
			t.Errorf("Call after Close: err %v, %d envelopes, want ErrClosed and still 1", err, envelopes())
		}
		if _, err := tr.Broadcast(0, "x"); !errors.Is(err, netsim.ErrClosed) || envelopes() != 1 {
			t.Errorf("Broadcast after Close: err %v, %d envelopes, want ErrClosed and still 1", err, envelopes())
		}
	})
}

// TestHandlerPanicIsError: a panicking handler fails its call — it takes
// neither the process nor the node down.
func TestHandlerPanicIsError(t *testing.T) {
	forEachCell(t, echo(2), func(t *testing.T, tr cell) {
		if _, err := tr.Call(0, 1, "panic"); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("panic in handler must surface as an error naming it, got %v", err)
		}
		if resp, err := tr.Call(0, 1, "ok"); err != nil || resp != "node1:ok" {
			t.Errorf("node dead after panic: %v, %v", resp, err)
		}
	})
}

// TestTimeoutOnStuckHandler: the per-call timeout fires on a stuck handler
// over every link instead of hanging the caller; the other nodes stay
// reachable, and the stuck node answers again — one request at a time —
// once it is released.
func TestTimeoutOnStuckHandler(t *testing.T) {
	var stuck chan struct{} // the current link's node 1 blocks until it is closed
	hs := func() []netsim.Handler {
		release := make(chan struct{})
		stuck = release
		hs := echo(2)()
		hs[1] = func(req any) (any, error) {
			<-release
			return "late", nil
		}
		return hs
	}
	forEachLink(t, netsim.Config{Timeout: 20 * time.Millisecond}, hs, func(t *testing.T, tr cell) {
		start := time.Now()
		_, err := tr.Call(netsim.Coordinator, 1, "x")
		if !errors.Is(err, netsim.ErrTimeout) {
			t.Fatalf("Call to stuck handler = %v, want ErrTimeout", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("timeout took %v, should fire promptly", d)
		}
		if resp, err := tr.Call(netsim.Coordinator, 0, "ok"); err != nil || resp != "node0:ok" {
			t.Fatalf("healthy node after timeout: %v, %v", resp, err)
		}
		close(stuck)
		if resp, err := tr.Call(netsim.Coordinator, 1, "y"); err != nil || resp != "late" {
			t.Fatalf("released node: %v, %v", resp, err)
		}
	})
}

// closeSignal is a link that reports when Close begins.
type closeSignal struct {
	netsim.Link
	began chan struct{}
	once  sync.Once
}

func (c *closeSignal) Close() {
	c.once.Do(func() { close(c.began) })
	c.Link.Close()
}

// TestCloseBoundedAfterLateReply: a call times out on a stuck handler,
// Close begins, and only then does the handler answer. On every link
// Close waits for the handler that is still running, and for nothing
// else: once the handler returns, its late reply goes nowhere and Close
// returns within the bound — on TCP, the connection that carries the late
// reply must not keep a server goroutine alive.
func TestCloseBoundedAfterLateReply(t *testing.T) {
	const bound = 5 * time.Second
	for l := range links {
		t.Run(links[l].name, func(t *testing.T) {
			release := make(chan struct{})
			var releaseOnce sync.Once
			unstick := func() { releaseOnce.Do(func() { close(release) }) }
			hs := echo(2)()
			hs[1] = func(any) (any, error) {
				<-release
				return "late", nil
			}
			link := &closeSignal{Link: links[l].new(), began: make(chan struct{})}
			tr, err := netsim.New(link, netsim.Config{Timeout: 20 * time.Millisecond}, hs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { unstick(); tr.Close() })
			if _, err := tr.Call(netsim.Coordinator, 1, "x"); !errors.Is(err, netsim.ErrTimeout) {
				t.Fatalf("Call to stuck handler = %v, want ErrTimeout", err)
			}
			if resp, err := tr.Call(netsim.Coordinator, 0, "ok"); err != nil || resp != "node0:ok" {
				t.Fatalf("healthy node: %v, %v", resp, err)
			}
			closed := make(chan struct{})
			go func() {
				tr.Close()
				close(closed)
			}()
			<-link.began
			select {
			case <-closed:
				t.Fatal("Close returned while a handler was still running")
			case <-time.After(50 * time.Millisecond):
			}
			unstick()
			start := time.Now()
			select {
			case <-closed:
			case <-time.After(bound):
				t.Fatalf("Close still waiting %v after the stuck handler answered", bound)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Close took %v after the handler answered", d)
			}
			if _, err := tr.Call(netsim.Coordinator, 0, "ok"); !errors.Is(err, netsim.ErrClosed) {
				t.Errorf("Call after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestBroadcastLatency: a broadcast pays one latency on a concurrent link
// (the fan-out wires run in parallel) and one per remote destination on
// the serial direct link; self-deliveries are free everywhere.
func TestBroadcastLatency(t *testing.T) {
	const n, latency = 6, 50 * time.Millisecond
	forEachLink(t, netsim.Config{Latency: latency}, echo(n), func(t *testing.T, tr cell) {
		start := time.Now()
		if _, err := tr.Call(1, 1, "x"); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= latency {
			t.Errorf("self-delivery took %v, should skip the %v latency", d, latency)
		}
		start = time.Now()
		if _, err := tr.Broadcast(netsim.Coordinator, "x"); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if d < latency {
			t.Errorf("broadcast took %v, want >= %v", d, latency)
		}
		if !tr.concurrent {
			if d < n*latency {
				t.Errorf("serial broadcast took %v, want >= %v", d, n*latency)
			}
		} else if d > 3*latency {
			t.Errorf("broadcast took %v: concurrent fan-out should pay one %v latency, not %d", d, latency, n)
		}
	})
}

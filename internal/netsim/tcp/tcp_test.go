package tcp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

// echoHandlers builds n handlers that answer node.Ping with Ack and
// node.Insert by echoing synthetic row ids, erroring on a designated node.
func echoHandlers(n, failAt int) []netsim.Handler {
	hs := make([]netsim.Handler, n)
	for i := 0; i < n; i++ {
		i := i
		hs[i] = func(req any) (any, error) {
			if i == failAt {
				return nil, fmt.Errorf("node %d refuses", i)
			}
			switch r := req.(type) {
			case node.Ping:
				return node.Ack{}, nil
			case node.Insert:
				res := node.InsertResult{}
				for range r.Tuples {
					res.Rows = append(res.Rows, 7)
				}
				return res, nil
			}
			return nil, fmt.Errorf("unhandled %T", req)
		}
	}
	return hs
}

func newT(t *testing.T, n, failAt int) *netsim.Stack {
	t.Helper()
	tr, err := netsim.New(NewLink(), netsim.Config{}, echoHandlers(n, failAt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestCallRoundTripsTypedPayloads(t *testing.T) {
	tr := newT(t, 3, -1)
	resp, err := tr.Call(netsim.Coordinator, 1, node.Ping{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(node.Ack); !ok {
		t.Fatalf("got %T, want node.Ack", resp)
	}
	ins := node.Insert{Frag: "f", Tuples: []types.Tuple{{types.Int(1), types.String("x")}}, Epoch: 5}
	resp, err = tr.Call(0, 2, ins)
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := resp.(node.InsertResult)
	if !ok || len(ir.Rows) != 1 {
		t.Fatalf("got %#v, want one echoed row", resp)
	}
}

func TestHandlerErrorsFlattenToStrings(t *testing.T) {
	tr := newT(t, 2, 1)
	_, err := tr.Call(netsim.Coordinator, 1, node.Ping{})
	if err == nil || !strings.Contains(err.Error(), "node 1 refuses") {
		t.Fatalf("got %v, want flattened handler error", err)
	}
}

// TestSentinelSurvivesWire: a node-raised sentinel keeps its identity
// (errors.Is) and its message across the socket; other errors carry none.
func TestSentinelSurvivesWire(t *testing.T) {
	hs := echoHandlers(2, -1)
	hs[1] = func(any) (any, error) {
		return nil, fmt.Errorf("node 1: dropping fragment %q: %w", "f", node.ErrNoFragment)
	}
	tr, err := netsim.New(NewLink(), netsim.Config{}, hs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = tr.Call(netsim.Coordinator, 1, node.Ping{})
	if !errors.Is(err, node.ErrNoFragment) || !strings.Contains(err.Error(), `dropping fragment "f"`) {
		t.Fatalf("got %v, want the message and errors.Is(node.ErrNoFragment)", err)
	}
	if _, err := tr.Call(netsim.Coordinator, 0, "unhandled"); err == nil || errors.Is(err, node.ErrNoFragment) {
		t.Fatalf("got %v, want a plain error", err)
	}
}

func TestAddNodeGrowsCluster(t *testing.T) {
	tr := newT(t, 1, -1)
	id, err := tr.AddNode(echoHandlers(1, -1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || tr.NumNodes() != 2 {
		t.Fatalf("AddNode gave id %d over %d nodes, want 1 over 2", id, tr.NumNodes())
	}
	if _, err := tr.Call(0, 1, node.Ping{}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsSerializePerNode(t *testing.T) {
	const n, calls = 4, 64
	var mu sync.Mutex
	depth := make([]int, n)
	hs := make([]netsim.Handler, n)
	for i := 0; i < n; i++ {
		i := i
		hs[i] = func(req any) (any, error) {
			mu.Lock()
			depth[i]++
			if depth[i] > 1 {
				mu.Unlock()
				return nil, errors.New("handler reentered")
			}
			mu.Unlock()
			mu.Lock()
			depth[i]--
			mu.Unlock()
			return node.Ack{}, nil
		}
	}
	tr, err := netsim.New(NewLink(), netsim.Config{}, hs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tr.Call(netsim.Coordinator, i%n, node.Ping{})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScatterStaysUnderConnectionCap: far more concurrent calls to one
// node than the pool's cap — a statement that scatters one call per delta
// row — all complete, and the node never accepts more than maxConns
// connections.
func TestScatterStaysUnderConnectionCap(t *testing.T) {
	const calls = 2000
	l := NewLink().(*link)
	tr, err := netsim.New(l, netsim.Config{}, []netsim.Handler{func(any) (any, error) {
		time.Sleep(20 * time.Microsecond)
		return node.Ack{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tr.Call(netsim.Coordinator, 0, node.Ping{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	s := l.servers[0]
	s.connMu.Lock()
	accepted := s.accepted
	s.connMu.Unlock()
	if accepted > maxConns {
		t.Errorf("node accepted %d connections, cap is %d", accepted, maxConns)
	}
}

// TestCloseReleasesCallersWaitingForConnections: with every connection
// busy on a stuck handler, callers waiting for one fail with ErrClosed
// once Close begins.
func TestCloseReleasesCallersWaitingForConnections(t *testing.T) {
	const waiting = 5
	release := make(chan struct{})
	l := NewLink().(*link)
	tr, err := netsim.New(l, netsim.Config{}, []netsim.Handler{func(any) (any, error) {
		<-release
		return node.Ack{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, maxConns+waiting)
	for i := 0; i < maxConns+waiting; i++ {
		go func() {
			_, err := tr.Call(netsim.Coordinator, 0, node.Ping{})
			errs <- err
		}()
	}
	s := l.servers[0]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.connMu.Lock()
		accepted := s.accepted
		s.connMu.Unlock()
		if accepted == maxConns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections opened", accepted, maxConns)
		}
	}
	time.Sleep(20 * time.Millisecond) // the rest are now waiting for a connection
	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	for closing := false; !closing; time.Sleep(time.Millisecond) {
		s.connMu.Lock()
		closing = s.closed // and every accepted connection closed
		s.connMu.Unlock()
	}
	close(release)
	<-closed
	released := 0
	for i := 0; i < maxConns+waiting; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				t.Error("a call cut off by Close reported success")
			case errors.Is(err, netsim.ErrClosed):
				released++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller waiting for a connection was not released by Close")
		}
	}
	if released < waiting {
		t.Errorf("%d calls failed with ErrClosed, want the %d that were waiting", released, waiting)
	}
}

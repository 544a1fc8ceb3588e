package netsim_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinview/internal/netsim"
)

// The channel link's own tests: what only an inbox goroutine per node can
// get wrong. The contract every link shares is in conformance_test.go.

func TestChanPanicRecovery(t *testing.T) {
	tr := netsim.NewChan(echo(2)())
	defer tr.Close()
	if _, err := tr.Call(0, 1, "panic"); err == nil {
		t.Error("panic in handler must surface as error")
	}
	// Node still alive after the panic.
	if resp, err := tr.Call(0, 1, "ok"); err != nil || resp != "node1:ok" {
		t.Errorf("node dead after panic: %v, %v", resp, err)
	}
}

func TestChanConcurrentCalls(t *testing.T) {
	tr := netsim.NewChan(echo(8)())
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				to := (g + i) % 8
				resp, err := tr.Call(netsim.Coordinator, to, i)
				if err != nil {
					errs <- err
					return
				}
				if resp != fmt.Sprintf("node%d:%d", to, i) {
					errs <- fmt.Errorf("bad response %v", resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := tr.Stats().Messages + tr.Stats().LocalCalls; got != 400 {
		t.Errorf("total deliveries = %d, want 400", got)
	}
}

func TestChanLatency(t *testing.T) {
	tr, _ := netsim.New(netsim.NewChanLink(), netsim.Config{Latency: 2 * time.Millisecond}, echo(4)())
	defer tr.Close()
	start := time.Now()
	if _, err := tr.Call(0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("inter-node call took %v, want >= 2ms", d)
	}
	// Self-delivery stays free.
	start = time.Now()
	if _, err := tr.Call(1, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Millisecond {
		t.Errorf("self-delivery took %v, should skip latency", d)
	}
	// Broadcast pays one latency, not L.
	start = time.Now()
	if _, err := tr.Broadcast(netsim.Coordinator, "x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 8*time.Millisecond {
		t.Errorf("broadcast took %v, fan-out should be parallel", d)
	}
}

func TestChanClose(t *testing.T) {
	tr := netsim.NewChan(echo(2)())
	tr.Close()
	tr.Close() // idempotent
	if _, err := tr.Call(0, 1, "x"); err == nil {
		t.Error("Call after Close should fail")
	}
	if _, err := tr.Broadcast(0, "x"); err == nil {
		t.Error("Broadcast after Close should fail")
	}
}

// TestChanCallTimeout demonstrates the per-call timeout firing on a stuck
// handler instead of hanging the coordinator forever.
func TestChanCallTimeout(t *testing.T) {
	stuck := make(chan struct{})
	hs := echo(2)()
	hs[1] = func(req any) (any, error) {
		<-stuck // never answers until released
		return "late", nil
	}
	tr, _ := netsim.New(netsim.NewChanLink(), netsim.Config{Timeout: 20 * time.Millisecond}, hs)
	defer func() {
		close(stuck)
		tr.Close()
	}()
	start := time.Now()
	_, err := tr.Call(netsim.Coordinator, 1, "x")
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("Call to stuck handler = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, should fire promptly", d)
	}
	// The healthy node still answers.
	if resp, err := tr.Call(netsim.Coordinator, 0, "ok"); err != nil || resp != "node0:ok" {
		t.Fatalf("healthy node after timeout: %v, %v", resp, err)
	}
}

// TestChanCloseCallRace is the regression test for the send-on-closed-
// channel panic: hammer Call and Broadcast from many goroutines while
// Close runs concurrently. Run with -race; any panic fails the test.
func TestChanCloseCallRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		tr := netsim.NewChan(echo(4)())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					// Errors (ErrClosed) are expected once Close lands;
					// only a panic is a failure.
					_, _ = tr.Call(netsim.Coordinator, (g+i)%4, i)
					if i%10 == 0 {
						_, _ = tr.Broadcast(netsim.Coordinator, i)
					}
				}
			}(g)
		}
		tr.Close()
		wg.Wait()
	}
}

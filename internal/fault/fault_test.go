package fault

import (
	"errors"
	"testing"
	"time"

	"joinview/internal/netsim"
)

func countingHandlers(n int) ([]netsim.Handler, []int) {
	counts := make([]int, n)
	hs := make([]netsim.Handler, n)
	for i := range hs {
		i := i
		hs[i] = func(req any) (any, error) {
			counts[i]++
			return req, nil
		}
	}
	return hs, counts
}

// inject builds the direct transport with inj installed.
func inject(hs []netsim.Handler, inj *Injector) *netsim.Stack {
	tr, _ := netsim.New(netsim.NewDirectLink(), netsim.Config{Inject: inj.Deliver}, hs)
	return tr
}

func TestDeterministicStorm(t *testing.T) {
	storm := func() Stats {
		hs, _ := countingHandlers(4)
		inj := New(Config{Seed: 7, DropRequest: 0.2, DropReply: 0.2, Duplicate: 0.2, HandlerErr: 0.2})
		tr := inject(hs, inj)
		inj.Arm()
		for i := 0; i < 200; i++ {
			_, _ = tr.Call(netsim.Coordinator, i%4, i)
		}
		return inj.Stats()
	}
	a, b := storm(), storm()
	if a != b {
		t.Fatalf("same seed, different storms: %+v vs %+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("storm injected nothing")
	}
}

func TestDisarmedInjectsNothing(t *testing.T) {
	hs, counts := countingHandlers(2)
	inj := New(Config{Seed: 1, DropRequest: 1})
	tr := inject(hs, inj)
	if _, err := tr.Call(netsim.Coordinator, 0, "x"); err != nil {
		t.Fatalf("disarmed injector must pass calls through: %v", err)
	}
	if counts[0] != 1 {
		t.Fatalf("handler ran %d times, want 1", counts[0])
	}
}

func TestFaultKinds(t *testing.T) {
	hs, counts := countingHandlers(2)
	inj := New(Config{Seed: 1})
	tr := inject(hs, inj)

	inj.FailNext(KindDropRequest, 1)
	if _, err := tr.Call(netsim.Coordinator, 0, "x"); !IsTransient(err) {
		t.Fatalf("drop-request error = %v, want transient", err)
	}
	if counts[0] != 0 {
		t.Fatal("dropped request must not reach the handler")
	}

	inj.FailNext(KindDropReply, 1)
	if _, err := tr.Call(netsim.Coordinator, 0, "x"); !IsTransient(err) {
		t.Fatalf("drop-reply error = %v, want transient", err)
	}
	if counts[0] != 1 {
		t.Fatal("drop-reply must execute the request exactly once")
	}

	inj.FailNext(KindDuplicate, 1)
	resp, err := tr.Call(netsim.Coordinator, 0, "x")
	if err != nil || resp != "x" {
		t.Fatalf("duplicate delivery = %v, %v", resp, err)
	}
	if counts[0] != 3 {
		t.Fatalf("duplicate must execute twice, handler ran %d total", counts[0])
	}

	inj.FailNext(KindHandlerErr, 1)
	if _, err := tr.Call(netsim.Coordinator, 0, "x"); !IsTransient(err) {
		t.Fatalf("handler-error = %v, want transient", err)
	}
	if counts[0] != 3 {
		t.Fatal("handler-error must not execute the request")
	}
}

func TestCrashRestart(t *testing.T) {
	hs, _ := countingHandlers(3)
	inj := New(Config{Seed: 1})
	tr := inject(hs, inj)
	inj.Crash(1)
	_, err := tr.Call(netsim.Coordinator, 1, "x")
	n, down := IsNodeDown(err)
	if !down || n != 1 {
		t.Fatalf("call to crashed node = %v, want NodeDownError{1}", err)
	}
	if IsTransient(err) {
		t.Fatal("node-down must not be transient")
	}
	// Broadcast completes past the down node.
	resps, err := tr.Broadcast(netsim.Coordinator, "x")
	if err == nil {
		t.Fatal("broadcast over a crashed node must report it")
	}
	if resps[0] != "x" || resps[2] != "x" {
		t.Fatalf("surviving nodes missing from broadcast: %v", resps)
	}
	inj.Restart(1)
	if _, err := tr.Call(netsim.Coordinator, 1, "x"); err != nil {
		t.Fatalf("restarted node refused call: %v", err)
	}
}

func TestCrashAfterSchedule(t *testing.T) {
	hs, _ := countingHandlers(2)
	inj := New(Config{Seed: 1})
	tr := inject(hs, inj)
	inj.CrashAfter(1, 2)
	for i := 0; i < 2; i++ {
		if _, err := tr.Call(netsim.Coordinator, 1, i); err != nil {
			t.Fatalf("call %d before scheduled crash failed: %v", i, err)
		}
	}
	if _, err := tr.Call(netsim.Coordinator, 1, "x"); err == nil {
		t.Fatal("scheduled crash did not fire")
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	hs, _ := countingHandlers(1)
	inj := New(Config{Seed: 1, DropRequest: 1, MaxFaults: 3})
	tr := inject(hs, inj)
	inj.Arm()
	failures := 0
	for i := 0; i < 10; i++ {
		if _, err := tr.Call(netsim.Coordinator, 0, i); err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("budget of 3 produced %d failures", failures)
	}
}

func TestIsTransientCoversTimeout(t *testing.T) {
	if !IsTransient(netsim.ErrTimeout) {
		t.Fatal("transport timeouts must be retryable")
	}
	if IsTransient(errors.New("other")) {
		t.Fatal("arbitrary errors must not be transient")
	}
}

func TestDelayFault(t *testing.T) {
	hs, _ := countingHandlers(1)
	inj := New(Config{Seed: 1, DelayDuration: 10 * time.Millisecond})
	tr := inject(hs, inj)
	inj.FailNext(KindDelay, 1)
	start := time.Now()
	if _, err := tr.Call(netsim.Coordinator, 0, "x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed call took %v, want >= 10ms", d)
	}
}

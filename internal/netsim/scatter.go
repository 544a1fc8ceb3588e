package netsim

import "sync"

// This file is the coordinator's scatter-gather dispatcher: a
// parallel-for over per-node work with deterministic gather semantics.
// Every per-node fan-out in the cluster and maintenance layers goes
// through it, so the choice between serial and concurrent dispatch is a
// single flag rather than a property of each call site.
//
// Determinism contract: results are always gathered in input (node) order
// and the returned error is the lowest-index failure, so a parallel run is
// observationally identical to the serial one apart from wall-clock and
// the *order* in which node-local side effects land. Under the Direct
// transport the dispatcher must run serially (parallel=false): Direct's
// handlers execute on the caller's goroutine and the experiments rely on
// its byte-identical counter traces.

// Call describes one delivery of a scatter phase.
type Call struct {
	From, To int
	Req      any
}

// ScatterFunc runs fn(0..n-1). Serial mode (parallel=false, or n<2)
// executes in order and stops at the first error, exactly like the loop
// it replaces. Parallel mode runs every index on its own goroutine (n is
// a node count or a delta's row count per statement), waits for all of
// them, and returns the lowest-index error (later indexes still ran —
// whatever tracks applied work for rollback must therefore see every
// success, not only the prefix; the cluster's statement scope records at
// the delivery layer, under each call).
func ScatterFunc(parallel bool, n int, fn func(i int) error) error {
	if !parallel || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ScatterCalls delivers the calls through t — concurrently when parallel —
// and gathers the responses in input order. On error the responses of the
// calls that did succeed are still returned (nil slots mark failures), so
// the caller can compensate applied work; the error is the lowest-index
// failure.
func ScatterCalls(t Transport, parallel bool, calls []Call) ([]any, error) {
	out := make([]any, len(calls))
	err := ScatterFunc(parallel, len(calls), func(i int) error {
		resp, err := t.Call(calls[i].From, calls[i].To, calls[i].Req)
		if err != nil {
			return err
		}
		out[i] = resp
		return nil
	})
	return out, err
}

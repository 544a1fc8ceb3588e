package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// TestInverseCoversAllMutatingRequests is the exhaustiveness check tying
// the two halves of the undo machinery together: every request type
// isMutating recognizes must either produce an exact inverse from
// node.InverseOf (given the response shape the node returns for it) or appear
// on the explicit rebuild-covered list — mutations whose undo is a
// derived-structure rebuild (legacy mode) or a node-local log unwind
// (durable mode), never a coordinator compensation. A new mutating request
// type fails here until it is given an inverse or deliberately listed.
func TestInverseCoversAllMutatingRequests(t *testing.T) {
	// Responses with the fields InverseOf reads, keyed by request type.
	responses := map[reflect.Type]any{
		reflect.TypeOf(node.Insert{}):        node.InsertResult{Rows: []storage.RowID{1}},
		reflect.TypeOf(node.DeleteRows{}):    node.DeleteResult{Rows: []storage.RowID{1}, Tuples: []types.Tuple{{types.Int(1)}}},
		reflect.TypeOf(node.DeleteMatch{}):   node.DeleteResult{Rows: []storage.RowID{1}, Tuples: []types.Tuple{{types.Int(1)}}},
		reflect.TypeOf(node.GIDelete{}):      node.GIDeleted{OK: true},
		reflect.TypeOf(node.GIDeleteBatch{}): node.GIDeletedBatch{OK: []bool{true}},
	}
	// Populated stand-ins where the zero value cannot produce an inverse
	// (batch inverses are built entry-by-entry, so they need entries).
	requests := map[reflect.Type]any{
		reflect.TypeOf(node.GIDeleteBatch{}): node.GIDeleteBatch{
			GI: "g", Vals: []types.Value{types.Int(1)}, Gs: []storage.GlobalRowID{{}},
		},
	}
	// Mutations with no exact inverse: the remaining DDL requests are
	// re-issued by rebuildDerived (a failed DDL undoes only the fragments
	// and global indexes it created), so none of them is ever in a
	// statement's undo log.
	rebuildCovered := map[reflect.Type]bool{
		reflect.TypeOf(node.CreateIndex{}):         true,
		reflect.TypeOf(node.DropFragment{}):        true,
		reflect.TypeOf(node.DropGlobalIndexFrag{}): true,
		// Replication failover/repair requests travel only via rawCall under
		// the global exclusive lock (no statement scope, nothing to roll
		// back); a failed failover or repair round is rerun idempotently.
		reflect.TypeOf(node.PromoteSlots{}):   true,
		reflect.TypeOf(node.GIPromoteSlots{}): true,
		reflect.TypeOf(node.GIScrubNode{}):    true,
	}
	for _, req := range node.AllRequests() {
		rt := reflect.TypeOf(req)
		if alt, ok := requests[rt]; ok {
			req = alt
		}
		if !isMutating(req) {
			if rebuildCovered[rt] {
				t.Errorf("%v is rebuild-covered but not mutating: stale allowlist entry", rt)
			}
			continue
		}
		inv := node.InverseOf(req, responses[rt])
		if rebuildCovered[rt] {
			if inv != nil {
				t.Errorf("%v gained an inverse (%T): remove it from the rebuild-covered list", rt, inv)
			}
			continue
		}
		if inv == nil {
			t.Errorf("mutating request %v has no inverse and is not rebuild-covered", rt)
		}
	}
}

// TestBackoffDelayBounded checks the retry backoff: zero base disables
// sleeping, the delay grows from the base, never exceeds the cap even for
// absurd attempt numbers (shift overflow clamped), and the jitter keeps it
// within [d/2, d).
func TestBackoffDelayBounded(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	maxJitter := func(n int64) int64 { return n - 1 }
	zeroJitter := func(int64) int64 { return 0 }

	if d := backoffDelay(0, max, 5, maxJitter); d != 0 {
		t.Fatalf("zero base should disable backoff, got %v", d)
	}
	for _, attempt := range []int{1, 2, 3, 4, 10, 63, 64, 1000, 1 << 30} {
		d := backoffDelay(base, max, attempt, maxJitter)
		if d <= 0 || d >= max {
			t.Errorf("attempt %d: delay %v outside (0, %v)", attempt, d, max)
		}
		lo := backoffDelay(base, max, attempt, zeroJitter)
		if lo < base/2 {
			t.Errorf("attempt %d: zero-jitter delay %v below base/2", attempt, lo)
		}
	}
	// Exponential growth up to the cap (zero jitter gives the midpoint d/2).
	if d1, d2 := backoffDelay(base, max, 1, zeroJitter), backoffDelay(base, max, 2, zeroJitter); d2 != 2*d1 {
		t.Errorf("attempt 2 delay %v, want double attempt 1's %v", d2, d1)
	}
	// Determinism: same inputs, same delay.
	if a, b := backoffDelay(base, max, 7, maxJitter), backoffDelay(base, max, 7, maxJitter); a != b {
		t.Errorf("same inputs gave %v then %v", a, b)
	}
}

// TestRetryJitterSeeded checks the jitter source: seeded, deterministic per
// seed, different across seeds.
func TestRetryJitterSeeded(t *testing.T) {
	draws := func(seed int64) string {
		c, err := New(Config{Nodes: 2, RetrySeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out string
		for i := 0; i < 8; i++ {
			out += fmt.Sprintf("%d,", c.jitter(1_000_000))
		}
		return out
	}
	if a, b := draws(5), draws(5); a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	if a, b := draws(5), draws(6); a == b {
		t.Fatalf("different seeds produced identical jitter: %s", a)
	}
}

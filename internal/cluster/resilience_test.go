package cluster

import (
	"reflect"
	"testing"

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

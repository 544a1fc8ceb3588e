package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/types"
)

// newAsyncCluster builds a loaded cluster with deferred maintenance on.
// The loader flushes after loading, so the view's initial materialization
// sees the full base tables; cfg tweaks (epoch size, bounds, transport)
// come in through mod.
func newAsyncCluster(t *testing.T, strat catalog.Strategy, mod func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{Nodes: 4, AsyncMaintenance: true}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tab := range []*catalog.Table{customerTable(), ordersTable(), lineitemTable()} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var customers, orders []types.Tuple
	ok := int64(0)
	for ck := int64(0); ck < 8; ck++ {
		customers = append(customers, cust(ck, float64(ck)*1.5))
		for o := 0; o < 2; o++ {
			ok++
			orders = append(orders, ord(ok, ck, float64(ok)*10))
		}
	}
	if err := c.Insert("customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		if err := c.RefreshStats(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
		t.Fatal(err)
	}
	return c
}

func eqOrderKey(k int64) expr.Expr {
	return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k)}}
}

// TestAsyncDeferralAndFlush is the core contract: a deferred insert is
// invisible in stored state until the flush epoch applies it atomically —
// base, auxiliary structures and view move together, so the consistency
// check holds both before and after.
func TestAsyncDeferralAndFlush(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	before, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []types.Tuple{ord(900, 3, 1), ord(901, 4, 2)}); err != nil {
		t.Fatal(err)
	}
	if w := c.Watermark(); w.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", w.Pending)
	}
	// Deferred: stored state — and therefore the view — is unchanged, and
	// still internally consistent at the watermark.
	stale, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	assertBagEqual(t, "view before flush", stale, before)
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatalf("consistency at watermark: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	w := c.Watermark()
	if w.Pending != 0 || w.Epoch == 0 {
		t.Fatalf("after flush: %+v", w)
	}
	fresh, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(before)+2 {
		t.Fatalf("view rows = %d, want %d", len(fresh), len(before)+2)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncReadModes exercises the two staleness contracts: ReadAtWatermark
// returns immediately with the lag visible in the watermark, ReadFresh
// drains first.
func TestAsyncReadModes(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyNaive, nil)
	base, err := c.ViewRows("jv1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []types.Tuple{ord(910, 2, 5)}); err != nil {
		t.Fatal(err)
	}
	rows, w, err := c.ReadViewRows("jv1", ReadAtWatermark)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(base) {
		t.Fatalf("watermark read saw %d rows, want stale %d", len(rows), len(base))
	}
	if w.Pending != 1 {
		t.Fatalf("watermark read Pending = %d, want 1", w.Pending)
	}
	rows, w, err = c.ReadViewRows("jv1", ReadFresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(base)+1 {
		t.Fatalf("fresh read saw %d rows, want %d", len(rows), len(base)+1)
	}
	if w.Pending != 0 {
		t.Fatalf("fresh read Pending = %d, want 0", w.Pending)
	}
}

// TestAsyncOverlayVictims verifies deferred deletes and updates resolve
// their victims against the effective state — stored rows overlaid with
// the pending queue — not against stale storage.
func TestAsyncOverlayVictims(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	// Order 920 exists only in the queue; order 1 is stored.
	if err := c.Insert("orders", []types.Tuple{ord(920, 5, 7)}); err != nil {
		t.Fatal(err)
	}
	deleted, err := c.Delete("orders", eqOrderKey(920))
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 {
		t.Fatalf("delete of queued tuple found %d victims, want 1", len(deleted))
	}
	// A second delete of the same key sees it already consumed.
	deleted, err = c.Delete("orders", eqOrderKey(920))
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 0 {
		t.Fatalf("repeat delete found %d victims, want 0", len(deleted))
	}
	// A deferred delete of a stored row hides it from later statements.
	if _, err := c.Delete("orders", eqOrderKey(1)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Update("orders", map[string]types.Value{"totalprice": types.Float(0)}, eqOrderKey(1)); err != nil || n != 0 {
		t.Fatalf("update of queue-deleted row matched %d (err %v), want 0", n, err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].I == 1 || r[0].I == 920 {
			t.Fatalf("deleted order %d still stored", r[0].I)
		}
	}
}

// TestAsyncCompactionCancels checks the DBToaster effect: an insert and
// its delete inside one epoch cancel before any maintenance work runs,
// and the queue counters report the cancellation.
func TestAsyncCompactionCancels(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	c.ResetMetrics()
	if err := c.Insert("orders", []types.Tuple{ord(930, 6, 1), ord(931, 6, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("orders", eqOrderKey(930)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("orders", eqOrderKey(931)); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Queue.DeltasCancelled != 4 {
		t.Fatalf("DeltasCancelled = %d, want 4 (2 inserts + 2 deletes netted)", m.Queue.DeltasCancelled)
	}
	if m.Queue.EpochsFlushed != 1 {
		t.Fatalf("EpochsFlushed = %d, want 1", m.Queue.EpochsFlushed)
	}
	if ios := m.Sub(before).TotalIOs(); ios != 0 {
		t.Fatalf("fully-cancelled epoch cost %d node I/Os, want 0", ios)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncRepeatedKeyCollapse: several updates of one row inside an
// epoch collapse to a single net delete+insert pair at flush.
func TestAsyncRepeatedKeyCollapse(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	c.ResetMetrics()
	for i := 1; i <= 4; i++ {
		n, err := c.Update("orders", map[string]types.Value{"totalprice": types.Float(float64(i))}, eqOrderKey(2))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("update %d matched %d rows, want 1", i, n)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	// 4 updates = 8 raw tuples; the net change is delete(old)+insert(last)
	// = 2 flushed, 6 cancelled.
	if m.Queue.TuplesFlushed != 2 || m.Queue.DeltasCancelled != 6 {
		t.Fatalf("flushed %d cancelled %d, want 2/6", m.Queue.TuplesFlushed, m.Queue.DeltasCancelled)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].I == 2 && r[2].F != 4 {
			t.Fatalf("order 2 totalprice = %v, want 4 (last update)", r[2].F)
		}
	}
}

// TestAsyncOverloadShed: at MaxQueueDepth the next writer fails with
// ErrOverload and no effects; a flush clears the backlog and the retry
// succeeds.
func TestAsyncOverloadShed(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, func(cfg *Config) { cfg.MaxQueueDepth = 3 })
	for i := int64(0); i < 3; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(940+i, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	err := c.Insert("orders", []types.Tuple{ord(950, 1, 1)})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("insert at depth bound: %v, want ErrOverload", err)
	}
	if w := c.Watermark(); w.Pending != 3 {
		t.Fatalf("shed statement left effects: Pending = %d, want 3", w.Pending)
	}
	if m := c.Metrics(); m.Queue.Overloads == 0 {
		t.Fatal("overload not counted")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []types.Tuple{ord(950, 1, 1)}); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncOverloadBlockInlineDrain: with OverloadBlock and no background
// flusher, an overloaded writer drains the queue itself and proceeds —
// no manual intervention, no error.
func TestAsyncOverloadBlockInlineDrain(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, func(cfg *Config) {
		cfg.MaxQueueDepth = 2
		cfg.OverloadBlock = true
	})
	for i := int64(0); i < 6; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(960+i, 2, 1)}); err != nil {
			t.Fatalf("blocked writer %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, r := range rows {
		if r[0].I >= 960 && r[0].I < 966 {
			found++
		}
	}
	if found != 6 {
		t.Fatalf("stored %d of 6 blocked-writer inserts", found)
	}
}

// TestAsyncBackgroundFlusher: a saturating writer against a small epoch
// size is drained by the background flusher without explicit Flush calls
// — the system recovers on its own. The depth trigger alone never flushes
// a tail shorter than EpochSize (how long the tail is depends on where the
// flusher's epochs happened to cut the stream), so the timer trigger is on
// as well: the drain must complete whatever the interleaving.
func TestAsyncBackgroundFlusher(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, func(cfg *Config) {
		cfg.EpochSize = 4
		cfg.FlushInterval = 10 * time.Millisecond
		cfg.MaxQueueDepth = 8
		cfg.OverloadBlock = true
	})
	for i := int64(0); i < 40; i++ {
		if err := c.Insert("orders", []types.Tuple{ord(1000+i, i%8, float64(i))}); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w := c.Watermark(); w.Pending == 0 && w.Epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher did not drain: %+v (flush err %v)", c.Watermark(), c.FlushErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Queue.EpochsFlushed < 2 {
		t.Fatalf("EpochsFlushed = %d, want several", m.Queue.EpochsFlushed)
	}
}

// TestAsyncFlushIntervalTimer: the wall-clock trigger drains the queue
// with no depth trigger configured.
func TestAsyncFlushIntervalTimer(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyNaive, func(cfg *Config) {
		cfg.FlushInterval = 10 * time.Millisecond
	})
	if err := c.Insert("orders", []types.Tuple{ord(970, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Watermark().Pending > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timer flusher did not drain: %+v (flush err %v)", c.Watermark(), c.FlushErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTxnDrainsQueue: a multi-statement transaction flushes pending
// deferred work first and runs synchronously, so its rollback hooks
// compensate against applied state.
func TestAsyncTxnDrainsQueue(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	if err := c.Insert("orders", []types.Tuple{ord(980, 4, 1)}); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Insert("orders", []types.Tuple{ord(981, 4, 2)}); err != nil {
		t.Fatal(err)
	}
	if w := c.Watermark(); w.Pending != 0 {
		t.Fatalf("transaction left %d pending deferred statements", w.Pending)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.TableRows("orders")
	if err != nil {
		t.Fatal(err)
	}
	saw980, saw981 := false, false
	for _, r := range rows {
		saw980 = saw980 || r[0].I == 980
		saw981 = saw981 || r[0].I == 981
	}
	if !saw980 || saw981 {
		t.Fatalf("after rollback: deferred-then-flushed 980 stored=%v, rolled-back 981 stored=%v", saw980, saw981)
	}
}

// TestAsyncDDLDrainsQueue: DDL flushes the queue before touching the
// catalog, so a new view materializes from fully-applied state.
func TestAsyncDDLDrainsQueue(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	if err := c.Insert("orders", []types.Tuple{ord(990, 5, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(jv1Def("jv1b", catalog.StrategyNaive)); err != nil {
		t.Fatal(err)
	}
	if w := c.Watermark(); w.Pending != 0 {
		t.Fatalf("DDL left %d pending deferred statements", w.Pending)
	}
	for _, v := range []string{"jv1", "jv1b"} {
		if err := c.CheckViewConsistency(v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

// TestAsyncDDLDrainRace: DDL must never drop an object that still has
// queued deltas. Concurrent writers hammer deferred inserts into a
// view-free table while the main goroutine churns DropTable/CreateTable
// on it; a delta slipping past the drain into a dropped table would
// wedge every later flush on a failed catalog lookup. The drain
// re-checks under the global lock (and gates new writers), so whatever
// the interleaving, the queue stays drainable.
func TestAsyncDDLDrainRace(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, func(cfg *Config) { cfg.UseChannels = true })
	li := func(ok, ln int64) types.Tuple {
		return types.Tuple{types.Int(ok), types.Int(ln), types.Float(float64(ok))}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := int64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The table comes and goes under the churn: an insert
				// hitting the dropped window errors on the catalog
				// lookup and leaves no trace, which is the contract.
				_ = c.Insert("lineitem", []types.Tuple{li(w*100000+i, i%7)})
			}
		}()
	}
	for round := 0; round < 20; round++ {
		if err := c.DropTable("lineitem"); err != nil {
			t.Fatalf("round %d: drop: %v", round, err)
		}
		if err := c.CreateTable(lineitemTable()); err != nil {
			t.Fatalf("round %d: recreate: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	// The queue must still drain: a delta referencing a dropped table
	// would fail every flush from here on.
	if err := c.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if w := c.Watermark(); w.Pending != 0 {
		t.Fatalf("queue wedged: %+v", w)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncAllStrategies runs a mixed deferred workload under each pinned
// strategy on both transports and checks the flushed view.
func TestAsyncAllStrategies(t *testing.T) {
	for _, strat := range allStrategies {
		for _, useChan := range []bool{false, true} {
			strat, useChan := strat, useChan
			t.Run(fmt.Sprintf("%s/chan=%v", strat, useChan), func(t *testing.T) {
				c := newAsyncCluster(t, strat, func(cfg *Config) { cfg.UseChannels = useChan })
				if err := c.Insert("orders", []types.Tuple{ord(800, 1, 1), ord(801, 2, 2)}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Delete("orders", eqOrderKey(3)); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Update("orders", map[string]types.Value{"totalprice": types.Float(99)}, eqOrderKey(800)); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := c.CheckViewConsistency("jv1"); err != nil {
					t.Fatal(err)
				}
				if err := c.CheckAllStructures(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAsyncMultiTableEpoch: one epoch carrying deltas for several tables
// applies per-table groups and converges every view.
func TestAsyncMultiTableEpoch(t *testing.T) {
	c := newAsyncCluster(t, catalog.StrategyAuto, nil)
	c.ResetMetrics()
	if err := c.Insert("customer", []types.Tuple{cust(100, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []types.Tuple{ord(850, 100, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("customer", expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Queue.EpochsFlushed != 1 {
		t.Fatalf("EpochsFlushed = %d, want 1 multi-table epoch", m.Queue.EpochsFlushed)
	}
	if err := c.CheckViewConsistency("jv1"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEpochFlush measures one flush epoch of E deferred single-row
// inserts against the compiled batched pipeline (bench-smoke CI target).
func BenchmarkEpochFlush(b *testing.B) {
	c, err := New(Config{Nodes: 8, AsyncMaintenance: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, tab := range []*catalog.Table{customerTable(), ordersTable()} {
		if err := c.CreateTable(tab); err != nil {
			b.Fatal(err)
		}
	}
	var customers []types.Tuple
	for ck := int64(0); ck < 64; ck++ {
		customers = append(customers, cust(ck, float64(ck)))
	}
	if err := c.Insert("customer", customers); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"customer", "orders"} {
		if err := c.RefreshStats(name); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.CreateView(jv1Def("jv1", catalog.StrategyAuto)); err != nil {
		b.Fatal(err)
	}
	const epoch = 32
	next := int64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < epoch; j++ {
			if err := c.Insert("orders", []types.Tuple{ord(next, next%64, float64(next))}); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

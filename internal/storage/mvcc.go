package storage

import (
	"sort"

	"joinview/internal/types"
)

// Multi-version read support. Every mutating request that runs inside a
// versioned statement carries a commit epoch; the fragment keeps a short
// version log of (epoch, mutation) records so a reader can reconstruct the
// state as of any epoch that is still pinned. Epoch 0 means "not versioned":
// the paths no snapshot reads across (MVCC off, recovery, DDL backfill,
// migration, failover promotion) never record, which keeps their behaviour
// and allocation profile byte-identical to the pre-MVCC engine.
//
// Stamps arriving at one fragment are nondecreasing: every mutation of a
// fragment runs under the owning statement's exclusive lockmgr claim, and
// the coordinator's epoch tracker hands out commit[frag]+1 under that claim.
// Records with epoch > E therefore form a contiguous suffix of the log, and
// a snapshot at E is the live state with that suffix inverted.

// verRecord is one logical mutation in the fragment's version log.
type verRecord struct {
	epoch uint64
	del   bool // delete (tuple = removed image) vs insert
	row   RowID
	tuple types.Tuple // nil for inserts: reconstruction only needs the id
}

// recordVersion appends one version-log record; epoch 0 records nothing.
func (f *Fragment) recordVersion(epoch uint64, del bool, row RowID, t types.Tuple) {
	if epoch == 0 {
		return
	}
	if del {
		f.vlog = append(f.vlog, verRecord{epoch: epoch, del: true, row: row, tuple: t})
	} else {
		f.vlog = append(f.vlog, verRecord{epoch: epoch, row: row})
	}
}

// InsertEpoch is Insert plus a version-log record stamped with epoch.
func (f *Fragment) InsertEpoch(t types.Tuple, epoch uint64) (RowID, error) {
	row, err := f.Insert(t)
	if err == nil {
		f.recordVersion(epoch, false, row, nil)
	}
	return row, err
}

// InsertAtEpoch is InsertAt plus a version-log record stamped with epoch.
func (f *Fragment) InsertAtEpoch(row RowID, t types.Tuple, epoch uint64) error {
	if err := f.InsertAt(row, t); err != nil {
		return err
	}
	f.recordVersion(epoch, false, row, nil)
	return nil
}

// DeleteEpoch is Delete plus a version-log record stamped with epoch.
func (f *Fragment) DeleteEpoch(row RowID, epoch uint64) (types.Tuple, bool) {
	t, ok := f.Delete(row)
	if ok {
		f.recordVersion(epoch, true, row, t)
	}
	return t, ok
}

// VersionLen reports the version-log length (tests, GC diagnostics).
func (f *Fragment) VersionLen() int { return len(f.vlog) }

// TruncateVersions drops every version record with epoch <= floor. The
// coordinator piggybacks the GC floor — min(pinned reader epochs, committed
// epoch) — on mutating requests, so the log stays bounded by the span of
// in-flight snapshots.
func (f *Fragment) TruncateVersions(floor uint64) {
	if floor == 0 || len(f.vlog) == 0 || f.vlog[0].epoch > floor {
		return
	}
	i := 0
	for i < len(f.vlog) && f.vlog[i].epoch <= floor {
		i++
	}
	if i == len(f.vlog) {
		f.vlog = f.vlog[:0]
		return
	}
	f.vlog = append(f.vlog[:0:0], f.vlog[i:]...)
}

// snapshotOverrides reconstructs, for a snapshot at epoch, the set of rows
// whose visibility differs from the live state. Returns nil when the live
// state already is the snapshot (no record newer than epoch). In the
// returned map a nil tuple means "inserted after epoch: hide it"; a non-nil
// tuple means "existed at epoch with this image" (deleted — or deleted and
// restored — since). The suffix is walked newest-first so the oldest record
// for a row decides, i.e. the row's state at the snapshot boundary.
func (f *Fragment) snapshotOverrides(epoch uint64) map[RowID]types.Tuple {
	if epoch == 0 { // 0 = unversioned read: the live state
		return nil
	}
	n := len(f.vlog)
	if n == 0 || f.vlog[n-1].epoch <= epoch {
		return nil
	}
	start := n - 1
	for start > 0 && f.vlog[start-1].epoch > epoch {
		start--
	}
	ov := make(map[RowID]types.Tuple, n-start)
	for i := n - 1; i >= start; i-- {
		r := &f.vlog[i]
		if r.del {
			ov[r.row] = r.tuple
		} else {
			ov[r.row] = nil
		}
	}
	return ov
}

// SnapshotScan visits every tuple visible at the given epoch, charging the
// same per-page scan I/O as Scan. When no mutation newer than the epoch
// exists it is exactly Scan — identical iteration, identical metering — so
// runs without concurrent writers (goldens, transport-equivalence grids)
// are byte-identical with MVCC on. Otherwise live rows are visited in
// layout order with post-epoch inserts skipped, followed by the images of
// rows deleted since the epoch, in row-id order.
func (f *Fragment) SnapshotScan(epoch uint64, fn func(RowID, types.Tuple) bool) {
	ov := f.snapshotOverrides(epoch)
	if ov == nil {
		f.Scan(fn)
		return
	}
	f.meter.ScanPages(int64(f.Pages()))
	f.TouchAllPages(1)
	f.snapshotRaw(ov, fn)
}

// SnapshotAll returns every tuple visible at the epoch without charging I/O
// (the AllRows verification path).
func (f *Fragment) SnapshotAll(epoch uint64) []types.Tuple {
	ov := f.snapshotOverrides(epoch)
	if ov == nil {
		return f.All()
	}
	out := make([]types.Tuple, 0, f.Len())
	f.snapshotRaw(ov, func(_ RowID, t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func (f *Fragment) snapshotRaw(ov map[RowID]types.Tuple, fn func(RowID, types.Tuple) bool) {
	stopped := false
	f.scanRaw(func(row RowID, t types.Tuple) bool {
		o, overridden := ov[row]
		if overridden {
			delete(ov, row)
			if o == nil { // inserted after the snapshot epoch
				return true
			}
			t = o // deleted then restored: show the pre-delete image
		}
		if !fn(row, t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	// Rows deleted since the epoch are no longer in the live tree; emit
	// their saved images in deterministic row-id order.
	var dead []RowID
	for row, t := range ov {
		if t != nil {
			dead = append(dead, row)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, row := range dead {
		if !fn(row, ov[row]) {
			return
		}
	}
}

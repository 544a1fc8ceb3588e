package storage

import "joinview/internal/types"

// InsertUnmetered stores a tuple without charging I/O. DDL backfill (the
// initial materialization of views, auxiliary relations and global indexes)
// uses it so metrics windows opened after DDL start from zero; the paper's
// experiments likewise measure only the incremental-maintenance step.
func (f *Fragment) InsertUnmetered(t types.Tuple) (RowID, error) {
	row, err := f.Insert(t)
	if err != nil {
		return 0, err
	}
	f.meter.Insert(-1)
	return row, nil
}

// ScanUnmetered visits every tuple visible at the given epoch with its row
// id, in SnapshotScan's order, without charging I/O or touching the buffer
// pool (DDL backfill, global-index builds, failover, verification). Epoch 0
// reads the live state.
func (f *Fragment) ScanUnmetered(epoch uint64, fn func(RowID, types.Tuple) bool) {
	if ov := f.snapshotOverrides(epoch); ov != nil {
		f.snapshotRaw(ov, fn)
		return
	}
	f.scanRaw(fn)
}

// DeleteUnmetered removes a tuple by row id without charging I/O
// (replication failover and repair, which account their cost separately).
func (f *Fragment) DeleteUnmetered(row RowID) (types.Tuple, bool) {
	t, ok := f.Delete(row)
	if ok {
		f.meter.Delete(-1)
	}
	return t, ok
}

// GetUnmetered fetches one tuple by row id without charging I/O. Callers
// that batch-fetch (the global-index maintenance path) charge the meter
// themselves with page-accurate costs; see node.FetchJoin.
func (f *Fragment) GetUnmetered(row RowID) (types.Tuple, bool) {
	key, ok := f.loc[row]
	if !ok {
		return nil, false
	}
	val, ok := f.rows.GetFirst(key)
	if !ok {
		return nil, false
	}
	return mustDecode(val), true
}

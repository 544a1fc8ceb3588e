package storage

import (
	"bytes"

	"joinview/internal/buffer"
	"joinview/internal/types"
)

// Buffer-pool integration. Fragments map accesses onto stable page
// surrogates: heap pages bucket rows by row id (monotonic ids append to
// fresh pages, like a heap file), clustered pages bucket a key's duplicate
// run by ordinal (co-located duplicates share pages, which is the whole
// point of clustering). A fragment with a nil pool skips tracking.

// rowPage is the heap-page surrogate of a row.
func (f *Fragment) rowPage(row RowID) buffer.PageKey {
	return buffer.PageKey{Frag: f.poolFrag, NS: buffer.NSRow, Page: uint64(row) / uint64(f.pageRows)}
}

// keyRunPage is the i-th page of the clustered run for key value v. Keys
// hash-pack into the fragment's current page count, approximating several
// small runs sharing a physical page; the mapping drifts as the fragment
// grows, which only costs spurious misses (never spurious hits within a
// stable fragment).
func (f *Fragment) keyRunPage(v types.Value, ordinal int) buffer.PageKey {
	pages := f.Pages()
	if pages < 1 {
		pages = 1
	}
	return buffer.PageKey{
		Frag: f.poolFrag,
		NS:   buffer.NSKey,
		Page: (v.Hash() + uint64(ordinal/f.pageRows)) % uint64(pages),
	}
}

// touchStored records the page access for one stored row (insert, delete,
// point get).
func (f *Fragment) touchStored(row RowID, t types.Tuple) {
	if f.pool == nil {
		return
	}
	if f.clusterCol >= 0 {
		f.pool.Touch(f.keyRunPage(t[f.clusterCol], 0))
		return
	}
	f.pool.Touch(f.rowPage(row))
}

// touchClusteredRun records the page accesses of reading n co-located
// matches of key value v.
func (f *Fragment) touchClusteredRun(v types.Value, n int) {
	if f.pool == nil || n == 0 {
		return
	}
	pages := (n + f.pageRows - 1) / f.pageRows
	for i := 0; i < pages; i++ {
		f.pool.Touch(f.keyRunPage(v, i*f.pageRows))
	}
}

// TouchAllPages records `times` full passes over the fragment (sequential
// scans and external-sort passes). Page surrogates match the point-access
// scheme so scans warm the cache for subsequent lookups.
func (f *Fragment) TouchAllPages(times int) {
	if f.pool == nil {
		return
	}
	for pass := 0; pass < times; pass++ {
		f.scanPages(func(k buffer.PageKey) { f.pool.Touch(k) })
	}
}

// scanPages calls fn with each page one full scan reads, in scan order,
// from the stored keys alone. A heap key is the row id, and ids ascend, so
// a new page starts where id/pageRows changes. A clustered key is the
// encoded cluster value followed by the row id, and equal values encode to
// equal bytes, so a run of equal values ends where the key's value prefix
// changes; each run decodes only that prefix, once, and reads one page per
// pageRows rows.
func (f *Fragment) scanPages(fn func(buffer.PageKey)) {
	if f.clusterCol < 0 {
		last, first := uint64(0), true
		f.rows.Scan(func(k, _ []byte) bool {
			row := decodeRowID(k[len(k)-8:])
			if pg := uint64(row) / uint64(f.pageRows); first || pg != last {
				last, first = pg, false
				fn(f.rowPage(row))
			}
			return true
		})
		return
	}
	var run []byte
	var v types.Value
	ordinal := 0
	f.rows.Scan(func(k, _ []byte) bool {
		if prefix := k[:len(k)-8]; !bytes.Equal(prefix, run) {
			run, v, ordinal = prefix, mustDecodeValue(prefix), 0
		}
		if ordinal%f.pageRows == 0 {
			fn(f.keyRunPage(v, ordinal))
		}
		ordinal++
		return true
	})
}

// Pool returns the fragment's buffer pool (nil when caching is disabled).
func (f *Fragment) Pool() *buffer.Pool { return f.pool }

// ReleasePages drops the fragment's cached pages from its pool, for a
// fragment that is being dropped.
func (f *Fragment) ReleasePages() { f.pool.Invalidate(f.poolFrag) }

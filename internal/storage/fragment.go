package storage

import (
	"bytes"
	"fmt"

	"joinview/internal/btree"
	"joinview/internal/buffer"
	"joinview/internal/types"
)

// DefaultPageRows is how many tuples fit on one page. Page counts feed the
// scan/sort costs of the analytical model; the default keeps benchmark-scale
// relations at realistic page counts.
const DefaultPageRows = 10

// Match is one tuple located by a lookup.
type Match struct {
	Row   RowID
	Tuple types.Tuple
}

// Fragment is one node's share of a relation (base relation, auxiliary
// relation or materialized view). A fragment is laid out either as a heap
// (rows in insertion order) or clustered on one attribute (rows in a
// B+-tree ordered by that attribute, as Teradata does for the primary
// index). Fragments may carry non-clustered secondary indexes.
//
// Every mutation and lookup charges the fragment's Meter per the paper's
// unit costs. Methods are not individually synchronized: a fragment is
// owned by exactly one node, and the node serializes access (directly in
// the deterministic transport, via its goroutine in the channel transport).
type Fragment struct {
	name       string
	schema     *types.Schema
	clusterCol int // -1 for heap layout
	pageRows   int
	meter      *Meter
	pool       *buffer.Pool
	poolFrag   buffer.FragID // the fragment's id in its pool's page keys

	// rows is the primary layout. Heap: key = rowid. Clustered: key =
	// encoded cluster value || rowid (the rowid suffix disambiguates
	// duplicates). Value = encoded tuple.
	rows *btree.Tree
	// loc maps rowid -> primary key bytes, for point access and deletion.
	loc     map[RowID][]byte
	nextRow RowID

	secondary map[string]*secondaryIndex

	// vlog is the version log backing snapshot reads (mvcc.go): records
	// appended in nondecreasing epoch order, truncated by GC.
	vlog []verRecord
	// enc is a reusable encoding scratch buffer: tuples and keys are built
	// here, then copied once at exact size for the b-tree (which retains
	// the slices it is given).
	enc []byte
	// arena backs the owned copies handed to the b-tree: encoded keys and
	// tuples are carved out of chunked page-style slabs instead of being
	// allocated one make() each. Bytes of deleted rows stay in their slab
	// until every slice carved from it is unreachable — the same trade a
	// page-oriented heap file makes, and the simulator never shrinks
	// relations far below their high-water mark.
	arena []byte
}

// arenaChunk is the slab size owned encodings are carved from; large
// enough to amortize allocation across dozens of rows, small enough that
// a retained slab wastes little on tiny fragments.
const arenaChunk = 4096

type secondaryIndex struct {
	col  int
	tree *btree.Tree // key = encoded column value, val = rowid
}

// Config parameterizes a fragment.
type Config struct {
	// Name is the relation the fragment holds (the node uses the relation
	// name); error messages and snapshots carry it.
	Name string
	// ClusterCol names the attribute the fragment is clustered on; empty
	// means heap layout.
	ClusterCol string
	// PageRows overrides tuples-per-page (DefaultPageRows if zero).
	PageRows int
	// Meter receives the fragment's I/O charges; a private meter is
	// allocated if nil.
	Meter *Meter
	// Pool optionally tracks page residency, splitting logical from
	// physical I/O; nil disables caching simulation.
	Pool *buffer.Pool
}

// NewFragment creates an empty fragment for the given schema.
func NewFragment(schema *types.Schema, cfg Config) (*Fragment, error) {
	f := &Fragment{
		name:       cfg.Name,
		schema:     schema,
		clusterCol: -1,
		pageRows:   cfg.PageRows,
		meter:      cfg.Meter,
		pool:       cfg.Pool,
		poolFrag:   cfg.Pool.NewFrag(),
		rows:       btree.New(),
		loc:        make(map[RowID][]byte),
		secondary:  make(map[string]*secondaryIndex),
	}
	if f.pageRows <= 0 {
		f.pageRows = DefaultPageRows
	}
	if f.meter == nil {
		f.meter = &Meter{}
	}
	if cfg.ClusterCol != "" {
		i := schema.ColIndex(cfg.ClusterCol)
		if i < 0 {
			return nil, fmt.Errorf("storage: cluster column %q not in schema %v", cfg.ClusterCol, schema.Names())
		}
		f.clusterCol = i
	}
	return f, nil
}

// Schema returns the fragment's schema.
func (f *Fragment) Schema() *types.Schema { return f.schema }

// Meter returns the fragment's I/O meter.
func (f *Fragment) Meter() *Meter { return f.meter }

// Len returns the number of stored tuples.
func (f *Fragment) Len() int { return len(f.loc) }

// Pages returns the number of pages the fragment occupies:
// ceil(Len/pageRows), minimum 1 page once non-empty.
func (f *Fragment) Pages() int {
	n := f.Len()
	if n == 0 {
		return 0
	}
	return (n + f.pageRows - 1) / f.pageRows
}

// PageRows returns the tuples-per-page configuration.
func (f *Fragment) PageRows() int { return f.pageRows }

// Clustered reports whether the fragment is clustered, and on which column.
func (f *Fragment) Clustered() (col string, ok bool) {
	if f.clusterCol < 0 {
		return "", false
	}
	return f.schema.Cols[f.clusterCol].Name, true
}

func (f *Fragment) primaryKey(row RowID, t types.Tuple) []byte {
	if f.clusterCol < 0 {
		return f.ownedRowID(row)
	}
	f.enc = types.AppendValue(f.enc[:0], t[f.clusterCol])
	f.enc = appendRowID(f.enc, row)
	return f.ownedScratch()
}

// encodeTupleOwned encodes t via the scratch buffer and returns an owned
// exact-size copy: one allocation instead of the append-growth chain of
// types.EncodeTuple.
func (f *Fragment) encodeTupleOwned(t types.Tuple) []byte {
	f.enc = types.AppendTuple(f.enc[:0], t)
	return f.ownedScratch()
}

// encodeKeyOwned encodes v via the scratch buffer at exact size.
func (f *Fragment) encodeKeyOwned(v types.Value) []byte {
	f.enc = types.AppendValue(f.enc[:0], v)
	return f.ownedScratch()
}

func (f *Fragment) ownedScratch() []byte {
	return f.ownedCopy(f.enc)
}

// ownedCopy returns a stable copy of b carved from the fragment's arena.
func (f *Fragment) ownedCopy(b []byte) []byte {
	n := len(b)
	if n > len(f.arena) {
		size := arenaChunk
		if n > size {
			size = n
		}
		f.arena = make([]byte, size)
	}
	out := f.arena[:n:n]
	f.arena = f.arena[n:]
	copy(out, b)
	return out
}

// ownedRowID encodes a row id into arena-backed storage (secondary-index
// payloads are retained by their tree just like primary entries).
func (f *Fragment) ownedRowID(r RowID) []byte {
	f.enc = appendRowID(f.enc[:0], r)
	return f.ownedScratch()
}

// Insert validates and stores a tuple, maintains all secondary indexes, and
// charges one INSERT. It returns the new row id.
func (f *Fragment) Insert(t types.Tuple) (RowID, error) {
	if err := f.schema.Validate(t); err != nil {
		return 0, err
	}
	row := f.nextRow
	f.nextRow++
	key := f.primaryKey(row, t)
	f.rows.Insert(key, f.encodeTupleOwned(t))
	f.loc[row] = key
	for _, idx := range f.secondary {
		idx.tree.Insert(f.encodeKeyOwned(t[idx.col]), f.ownedRowID(row))
	}
	f.meter.Insert(1)
	f.touchStored(row, t)
	return row, nil
}

// InsertAt stores a tuple under a specific row id, maintains all secondary
// indexes, and charges one INSERT. It is the undo path for deletes: row ids
// are otherwise never reused (Insert allocates monotonically), so restoring
// a deleted tuple at its original id keeps every global-index entry that
// references the row valid. The id must not be occupied.
func (f *Fragment) InsertAt(row RowID, t types.Tuple) error {
	if err := f.schema.Validate(t); err != nil {
		return err
	}
	if _, occupied := f.loc[row]; occupied {
		return fmt.Errorf("storage: row %d already occupied in %q", row, f.name)
	}
	if row >= f.nextRow {
		f.nextRow = row + 1
	}
	key := f.primaryKey(row, t)
	f.rows.Insert(key, f.encodeTupleOwned(t))
	f.loc[row] = key
	for _, idx := range f.secondary {
		idx.tree.Insert(f.encodeKeyOwned(t[idx.col]), f.ownedRowID(row))
	}
	f.meter.Insert(1)
	f.touchStored(row, t)
	return nil
}

// Delete removes the tuple with the given row id, maintains secondary
// indexes, charges one DELETE, and returns the removed tuple.
func (f *Fragment) Delete(row RowID) (types.Tuple, bool) {
	key, ok := f.loc[row]
	if !ok {
		return nil, false
	}
	val, ok := f.rows.GetFirst(key)
	if !ok {
		panic(fmt.Sprintf("storage: loc points at missing primary key for row %d", row))
	}
	t := mustDecode(val)
	f.rows.Delete(key, nil)
	delete(f.loc, row)
	for _, idx := range f.secondary {
		idx.tree.Delete(types.EncodeKey(t[idx.col]), encodeRowID(row))
	}
	f.meter.Delete(1)
	f.touchStored(row, t)
	return t, true
}

// Get fetches one tuple by row id, charging one FETCH.
func (f *Fragment) Get(row RowID) (types.Tuple, bool) {
	key, ok := f.loc[row]
	if !ok {
		return nil, false
	}
	val, ok := f.rows.GetFirst(key)
	if !ok {
		return nil, false
	}
	f.meter.Fetch(1)
	t := mustDecode(val)
	f.touchStored(row, t)
	return t, true
}

// CreateIndex builds a non-clustered secondary index on the named column,
// indexing existing rows. Index creation itself is not metered (DDL).
func (f *Fragment) CreateIndex(name, col string) error {
	if _, dup := f.secondary[name]; dup {
		return fmt.Errorf("storage: index %q already exists", name)
	}
	ci := f.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("storage: index column %q not in schema %v", col, f.schema.Names())
	}
	idx := &secondaryIndex{col: ci, tree: btree.New()}
	f.scanRaw(func(row RowID, t types.Tuple) bool {
		idx.tree.Insert(types.EncodeKey(t[ci]), encodeRowID(row))
		return true
	})
	f.secondary[name] = idx
	return nil
}

// HasIndexOn reports whether some secondary index covers the column.
func (f *Fragment) HasIndexOn(col string) bool {
	ci := f.schema.ColIndex(col)
	for _, idx := range f.secondary {
		if idx.col == ci {
			return true
		}
	}
	return false
}

// AccessPath describes how LookupEqual located its matches; the maintenance
// strategies report it so experiments can verify which physical plan ran.
type AccessPath uint8

// Access paths, cheapest first.
const (
	AccessClustered AccessPath = iota
	AccessSecondary
	AccessScan
)

func (p AccessPath) String() string {
	switch p {
	case AccessClustered:
		return "clustered"
	case AccessSecondary:
		return "secondary-index"
	case AccessScan:
		return "scan"
	default:
		return "unknown"
	}
}

// LookupEqual returns all tuples whose column equals v, charging I/O
// according to the access path used, mirroring §3.1:
//
//   - clustered on the column: one SEARCH; matching tuples sit together on
//     the leaf, so the first page of matches is free and each additional
//     page costs one FETCH;
//   - secondary index on the column: one SEARCH plus one FETCH per match
//     (non-clustered: every row is a separate page visit);
//   - otherwise: a full scan charged per page.
func (f *Fragment) LookupEqual(col string, v types.Value) ([]Match, AccessPath, error) {
	ci := f.schema.ColIndex(col)
	if ci < 0 {
		return nil, AccessScan, fmt.Errorf("storage: lookup column %q not in schema %v", col, f.schema.Names())
	}
	if ci == f.clusterCol {
		f.meter.Search(1)
		ms := f.clusteredMatches(v)
		if pages := (len(ms) + f.pageRows - 1) / f.pageRows; pages > 1 {
			f.meter.Fetch(int64(pages - 1))
		}
		f.touchClusteredRun(v, len(ms))
		return ms, AccessClustered, nil
	}
	for _, idx := range f.secondary {
		if idx.col != ci {
			continue
		}
		f.meter.Search(1)
		f.enc = types.AppendValue(f.enc[:0], v)
		var ms []Match
		for _, rv := range idx.tree.Get(f.enc) {
			row := decodeRowID(rv)
			key := f.loc[row]
			val, ok := f.rows.GetFirst(key)
			if !ok {
				continue
			}
			ms = append(ms, Match{Row: row, Tuple: mustDecode(val)})
		}
		f.meter.Fetch(int64(len(ms)))
		for _, m := range ms {
			f.touchStored(m.Row, m.Tuple)
		}
		return ms, AccessSecondary, nil
	}
	// Fall back to a full scan.
	var ms []Match
	err := f.ScanWhere([]int{ci}, func(t types.Tuple) (bool, error) {
		return types.Equal(t[ci], v), nil
	}, func(row RowID, t types.Tuple) bool {
		ms = append(ms, Match{Row: row, Tuple: t})
		return true
	})
	return ms, AccessScan, err
}

// clusteredMatches walks the primary tree for all rows with cluster value v.
func (f *Fragment) clusteredMatches(v types.Value) []Match {
	// The prefix is only compared against during the walk, never retained,
	// so the scratch buffer avoids a per-probe key allocation.
	f.enc = types.AppendValue(f.enc[:0], v)
	prefix := f.enc
	var ms []Match
	f.rows.Ascend(prefix, func(k, val []byte) bool {
		if len(k) < len(prefix)+8 || !bytes.Equal(k[:len(prefix)], prefix) {
			return false
		}
		ms = append(ms, Match{
			Row:   decodeRowID(k[len(k)-8:]),
			Tuple: mustDecode(val),
		})
		return true
	})
	return ms
}

// Scan visits every tuple in layout order (rowid order for heaps, cluster
// order for clustered fragments) and charges one I/O per page.
func (f *Fragment) Scan(fn func(RowID, types.Tuple) bool) {
	f.meter.ScanPages(int64(f.Pages()))
	f.TouchAllPages(1)
	f.scanRaw(fn)
}

// ScanWhere is Scan for a reader that filters rows. It charges and touches
// the same pages as Scan. For each row it decodes only the columns cols
// (ascending) into one reused tuple, whose other columns read NULL, and
// skips the rest of the stored bytes; a row that keep accepts is then
// decoded whole and passed to fn. keep must not retain its tuple. An error
// from keep stops the scan and is returned.
func (f *Fragment) ScanWhere(cols []int, keep func(types.Tuple) (bool, error), fn func(RowID, types.Tuple) bool) error {
	for i, c := range cols {
		if c < 0 || c >= f.schema.Len() || (i > 0 && c <= cols[i-1]) {
			return fmt.Errorf("storage: scan columns %v are not ascending columns of %v", cols, f.schema.Names())
		}
	}
	f.meter.ScanPages(int64(f.Pages()))
	f.TouchAllPages(1)
	part := make(types.Tuple, f.schema.Len())
	var err error
	f.rows.Scan(func(k, v []byte) bool {
		if err := types.DecodeCols(v, cols, part); err != nil {
			panic("storage: corrupt stored tuple: " + err.Error())
		}
		var ok bool
		if ok, err = keep(part); err != nil {
			return false
		}
		return !ok || fn(decodeRowID(k[len(k)-8:]), mustDecode(v))
	})
	return err
}

// scanRaw iterates without charging I/O (index builds, tests, recompute
// references).
func (f *Fragment) scanRaw(fn func(RowID, types.Tuple) bool) {
	f.rows.Scan(func(k, v []byte) bool {
		return fn(decodeRowID(k[len(k)-8:]), mustDecode(v))
	})
}

// All returns every tuple in layout order without charging I/O or touching
// the buffer pool. A metered caller charges and touches the pages itself,
// as exec.SortMerge does before it reads.
func (f *Fragment) All() []types.Tuple {
	out := make([]types.Tuple, 0, f.Len())
	f.scanRaw(func(_ RowID, t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// FindRows returns the row ids of tuples equal to t (used by deletes that
// identify victims by value). Uses the best access path on the given column
// hint, verifying full-tuple equality; not metered beyond the lookup.
func (f *Fragment) FindRows(hintCol string, t types.Tuple) ([]RowID, error) {
	ci := f.schema.ColIndex(hintCol)
	if ci < 0 {
		return nil, fmt.Errorf("storage: hint column %q not in schema", hintCol)
	}
	ms, _, err := f.LookupEqual(hintCol, t[ci])
	if err != nil {
		return nil, err
	}
	var rows []RowID
	for _, m := range ms {
		if m.Tuple.Equal(t) {
			rows = append(rows, m.Row)
		}
	}
	return rows, nil
}

func mustDecode(b []byte) types.Tuple {
	t, _, err := types.DecodeTuple(b)
	if err != nil {
		panic("storage: corrupt stored tuple: " + err.Error())
	}
	return t
}

func mustDecodeValue(b []byte) types.Value {
	v, _, err := types.DecodeValue(b)
	if err != nil {
		panic("storage: corrupt stored key: " + err.Error())
	}
	return v
}

package storage

import (
	"fmt"
	"slices"
	"sync"

	"eventdb/internal/val"
)

// Table holds the rows of one schema and their primary keys. All
// exported methods are safe for concurrent use; mutation happens only
// through transactions.
//
// A row lives in one of two places. A hot row is one packed string in
// rows: its values' val.AppendBinary encodings back to back, the WAL's
// row encoding without the count (the schema fixes it), so a row costs
// its encoded size, not 32 bytes per column. A sealed row lives in its
// columnar segment: once a segment is installed the table hands it the
// rows it holds (Evict), and serves them from it until an update or a
// delete takes one back (see sealed.go); a run of an int key is its
// rows' key index too, which lookup searches. Every read — Get, GetByPK,
// Scan, ScanRows, ScanRowsWhere, Len and the old images a commit hands
// to hooks and the WAL — sees both alike, and unpacks into a fresh Row
// whose string and bytes values alias the immutable image or segment: a
// reader may keep or modify it. A SELECT reads the table through one
// View (zone.go): the sealed runs whose zones admit its predicate, and
// the hot rows when their zone does.
type Table struct {
	mu     sync.RWMutex
	schema *Schema
	rows   map[RowID]string // the hot rows' images
	pack   []byte           // packing scratch; t.mu held for writing
	nextID RowID
	pk     map[string]RowID // encoded primary key → row ID, but for keyed runs
	// runs are the sealed runs holding evicted rows, ascending and
	// disjoint by row id; cold counts the rows they hold.
	runs []*coldRun
	cold int
	// hot covers the hot rows' values (see hotZones).
	hot hotZones
	// rewritten holds the hot rows an update has rewritten since their
	// insert: a cut of the table's history passes them by (Images). Nil
	// while there are none.
	rewritten map[RowID]struct{}
	// rowsMax and pkMax are the most entries rows and pk have held
	// since they were built (see shrink).
	rowsMax, pkMax int
	version        uint64 // bumped on every commit touching this table
}

func newTable(s *Schema) *Table {
	t := &Table{
		schema: s,
		rows:   make(map[RowID]string),
		nextID: 1,
		hot:    make(hotZones, len(s.Columns)),
	}
	if s.HasPrimaryKey() {
		t.pk = make(map[string]RowID)
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows) + t.cold
}

// NextID returns the id the table's next insert takes. Ids are handed
// out gap-free, in commit order under the table lock, so every id below
// it belongs to a committed row, live or deleted.
func (t *Table) NextID() RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// Version returns the commit version; it changes whenever the table's
// contents change, which lets pollers (query-diff capture) skip work.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Get returns the row with the given ID.
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.row(id)
}

// GetByPK returns the row whose primary key equals the given values.
func (t *Table) GetByPK(keyVals ...val.Value) (Row, RowID, bool) {
	var arr [64]byte
	key := arr[:0]
	for _, v := range keyVals {
		key = val.AppendKey(key, v)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk == nil {
		return nil, 0, false
	}
	id, ok := t.lookup(string(key))
	if !ok {
		return nil, 0, false
	}
	r, ok := t.row(id)
	if !ok {
		return nil, 0, false
	}
	return r, id, true
}

// Scan calls fn for every row until fn returns false. The snapshot is
// consistent: the table read lock is held for the duration, and every
// row is a fresh copy, so fn may retain it.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, img := range t.rows {
		if !fn(id, t.unpack(img)) {
			return
		}
	}
	for _, run := range t.runs {
		if !run.seg.DecodeRows(run.live, func(i int, r Row) bool {
			return fn(run.seg.RowID(i), slices.Clone(r))
		}) {
			return
		}
	}
}

// ScanRows returns all rows with their IDs (a stable snapshot copy).
func (t *Table) ScanRows() ([]RowID, []Row) {
	ids, rows, _ := t.ScanRowsWhere(nil)
	return ids, rows
}

// ScanRowsWhere is ScanRows restricted to the rows keep accepts (every
// row if keep is nil). keep is handed a scratch row that the next row
// overwrites, so only accepted rows are copied out of the table; its
// first error ends the scan. The table lock covers the View only.
func (t *Table) ScanRowsWhere(keep func(Row) (bool, error)) ([]RowID, []Row, error) {
	v := t.View(nil)
	var ids []RowID
	var rows []Row
	var err error
	take := func(id RowID, r Row) bool {
		if keep != nil {
			var ok bool
			if ok, err = keep(r); err != nil || !ok {
				return err == nil
			}
		}
		ids = append(ids, id)
		rows = append(rows, slices.Clone(r))
		return true
	}
	if !v.Hot(take) {
		return nil, nil, err
	}
	for _, run := range v.Runs {
		if !run.Seg.DecodeRows(run.Live, func(i int, r Row) bool { return take(run.Seg.RowID(i), r) }) {
			return nil, nil, err
		}
	}
	return ids, rows, nil
}

// row returns row id, unpacked from its image or decoded from its
// sealed run. Caller holds t.mu.
func (t *Table) row(id RowID) (Row, bool) {
	if img, ok := t.rows[id]; ok {
		return t.unpack(img), true
	}
	if run, i := t.coldAt(id); run != nil {
		r := make(Row, len(t.schema.Columns))
		for ci := range r {
			r[ci] = run.seg.At(ci, i)
		}
		return r, true
	}
	return nil, false
}

// unpack decodes a row image into a fresh Row: one allocation, since
// string and bytes values alias the image instead of copying out of it.
func (t *Table) unpack(img string) Row {
	return t.unpackInto(make(Row, len(t.schema.Columns)), img)
}

// unpackInto decodes a row image into r, which has the schema's width.
func (t *Table) unpackInto(r Row, img string) Row {
	for i := range r {
		v, n, err := val.DecodeBinary(img)
		if err != nil {
			panic(fmt.Sprintf("storage: table %q: corrupt row image: %v", t.schema.Name, err))
		}
		r[i], img = v, img[n:]
	}
	return r
}

// packRow encodes r as a row image. Caller holds t.mu for writing.
func (t *Table) packRow(r Row) string {
	buf := t.pack[:0]
	for _, v := range r {
		buf = val.AppendBinary(buf, v)
	}
	if cap(buf) <= maxCommitBuf { // one huge row must not pin its size
		t.pack = buf
	}
	return string(buf)
}

// applyInsert stores the row (already validated), maintaining the
// primary-key index.
// Caller holds t.mu.
func (t *Table) applyInsert(id RowID, r Row) {
	t.rows[id] = t.packRow(r)
	t.hot.widen(r)
	t.rowsMax = max(t.rowsMax, len(t.rows))
	if id >= t.nextID {
		t.nextID = id + 1
	}
	if t.pk != nil {
		t.pk[t.schema.pkKey(r)] = id
		t.pkMax = max(t.pkMax, len(t.pk))
	}
}

// applyUpdate replaces row id with newRow, which is stored hot: an
// evicted row leaves its sealed run, unless newRow is the row it holds
// there (equal values pack to equal images). Caller holds t.mu.
func (t *Table) applyUpdate(id RowID, old, newRow Row) {
	img, hot := t.rows[id]
	if !hot && t.cold > 0 {
		if slices.Equal(old, newRow) {
			return
		}
		t.unevict(id)
	}
	if packed := t.packRow(newRow); packed != img {
		if t.rewritten == nil {
			t.rewritten = make(map[RowID]struct{})
		}
		t.rewritten[id] = struct{}{}
		t.rows[id] = packed
	}
	t.hot.widen(newRow)
	t.rowsMax = max(t.rowsMax, len(t.rows))
	if t.pk != nil {
		delete(t.pk, t.schema.pkKey(old))
		t.pk[t.schema.pkKey(newRow)] = id
	}
}

// applyDelete removes row id, hot or evicted. Caller holds t.mu.
func (t *Table) applyDelete(id RowID, old Row) {
	n := len(t.rows)
	delete(t.rows, id)
	if len(t.rows) == n {
		t.unevict(id)
	}
	if delete(t.rewritten, id); len(t.rewritten) == 0 {
		t.rewritten = nil // a drained queue's map goes with it
	}
	if t.pk != nil {
		delete(t.pk, t.schema.pkKey(old))
	}
	t.shrink()
}

// shrink rebuilds rows and pk at their length once it has fallen to a
// quarter of the most they held since they were built: a Go map never
// gives memory back, so a drained queue table would otherwise keep its
// backlog's, and a table whose rows left for their segments the
// preload's. Caller holds t.mu for writing.
func (t *Table) shrink() {
	t.rows, t.rowsMax = shrunk(t.rows, t.rowsMax)
	if t.pk != nil {
		t.pk, t.pkMax = shrunk(t.pk, t.pkMax)
	}
}

// minShrink is the fewest entries a map must once have held to be
// rebuilt: a smaller one costs little, and a table churning a handful
// of rows would rebuild it on every delete.
const minShrink = 256

// shrunk returns m, or a copy of it built for its length when that is
// down to a quarter of most, the most it has held; and the most the
// returned map has held.
func shrunk[K comparable, V any](m map[K]V, most int) (map[K]V, int) {
	if most < minShrink || len(m)*4 > most {
		return m, most
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out, len(m)
}

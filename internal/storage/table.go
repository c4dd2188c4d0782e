package storage

import (
	"fmt"
	"math"
	"sync"

	"eventdb/internal/val"
)

// Table holds rows and indexes for one schema. All exported methods are
// safe for concurrent use; mutation happens only through transactions.
//
// A stored row is one packed string: its values' val.AppendBinary
// encodings back to back, the WAL's row encoding without the count (the
// schema fixes it), so a row costs its encoded size, not 32 bytes per
// column. Every read unpacks into a fresh Row whose string and bytes
// values alias the immutable image: a reader may keep or modify it.
type Table struct {
	mu      sync.RWMutex
	schema  *Schema
	rows    map[RowID]string
	pack    []byte // packing scratch; t.mu held for writing
	nextID  RowID
	pk      map[string]RowID // encoded primary key → row ID
	indexes map[string]*Index
	version uint64 // bumped on every commit touching this table
	// lastCommit is the CommitInfo.Seq of the last commit that touched
	// this table.
	lastCommit uint64
}

func newTable(s *Schema) *Table {
	t := &Table{
		schema:  s,
		rows:    make(map[RowID]string),
		nextID:  1,
		indexes: make(map[string]*Index),
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
	return len(t.rows)
}

// Version returns the commit version; it changes whenever the table's
// contents change, which lets pollers (query-diff capture) skip work.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// LastCommit returns the sequence number (CommitInfo.Seq) of the last
// commit that touched the table, zero if none has. The commit is
// applied — visible to Get and ScanRows — but its after-commit hooks
// may not have run yet: an observer that derives state from the hook
// stream compares this with the last Seq it was handed to learn whether
// it is behind.
func (t *Table) LastCommit() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastCommit
}

// Get returns the row with the given ID.
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	img, ok := t.rows[id]
	t.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return t.unpack(img), true
}

// GetByPK returns the row whose primary key equals the given values.
func (t *Table) GetByPK(keyVals ...val.Value) (Row, RowID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk == nil {
		return nil, 0, false
	}
	id, ok := t.pk[keyForValues(keyVals)]
	if !ok {
		return nil, 0, false
	}
	return t.unpack(t.rows[id]), id, true
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
}

// ScanRows returns all rows with their IDs (a stable snapshot copy).
func (t *Table) ScanRows() ([]RowID, []Row) {
	ids, rows, _ := t.ScanRowsWhere(nil)
	return ids, rows
}

// ScanRowsWhere is ScanRows restricted to the rows keep accepts (every
// row if keep is nil). keep is handed a scratch row that the next row
// overwrites, so only accepted rows are copied out of the table; its
// first error ends the scan. The table lock covers the snapshot only.
func (t *Table) ScanRowsWhere(keep func(Row) (bool, error)) ([]RowID, []Row, error) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	imgs := make([]string, 0, len(t.rows))
	for id, img := range t.rows {
		ids = append(ids, id)
		imgs = append(imgs, img)
	}
	t.mu.RUnlock()
	var rows []Row
	scratch := make(Row, len(t.schema.Columns))
	for i, img := range imgs {
		t.unpackInto(scratch, img)
		if keep != nil {
			ok, err := keep(scratch)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		ids[len(rows)] = ids[i]
		rows = append(rows, append(Row(nil), scratch...))
	}
	return ids[:len(rows)], rows, nil
}

// row returns the stored row id, unpacked. Caller holds t.mu.
func (t *Table) row(id RowID) (Row, bool) {
	img, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return t.unpack(img), true
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

// LookupEq uses the named index for an equality lookup. Numeric probe
// values are normalized to the indexed column's kind so that e.g. an
// integer literal finds rows in a float column.
func (t *Table) LookupEq(indexName string, vals ...val.Value) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[indexName]
	if !ok {
		return nil, fmt.Errorf("storage: table %q: no index %q", t.schema.Name, indexName)
	}
	if len(vals) != len(ix.cols) {
		return nil, fmt.Errorf("storage: index %q: %d lookup values, want %d", indexName, len(vals), len(ix.cols))
	}
	probe := make([]val.Value, len(vals))
	for i, v := range vals {
		nv, exact := normalizeProbe(t.schema.Columns[ix.cols[i]].Kind, v)
		if !exact {
			return nil, nil // e.g. 10.5 can never equal an int column
		}
		probe[i] = nv
	}
	return ix.lookupEq(probe), nil
}

// LookupRange uses a single-column ordered index for a range scan.
// Nil bounds are unbounded; open flags make bounds strict. Numeric
// bounds are normalized to the column kind (10.5 over an int column
// becomes the tightest enclosing integer bound).
func (t *Table) LookupRange(indexName string, lo, hi *val.Value, loOpen, hiOpen bool) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[indexName]
	if !ok {
		return nil, fmt.Errorf("storage: table %q: no index %q", t.schema.Name, indexName)
	}
	if ix.Kind != OrderedIndex {
		return nil, fmt.Errorf("storage: index %q does not support range scans", indexName)
	}
	colKind := t.schema.Columns[ix.cols[0]].Kind
	if lo != nil {
		nv, exact := normalizeProbe(colKind, *lo)
		if !exact {
			// Non-integral float bound over an int column: tighten to
			// the next integer and close the bound.
			f, _ := (*lo).AsFloat()
			nv = val.Int(int64(math.Ceil(f)))
			loOpen = false
		}
		lo = &nv
	}
	if hi != nil {
		nv, exact := normalizeProbe(colKind, *hi)
		if !exact {
			f, _ := (*hi).AsFloat()
			nv = val.Int(int64(math.Floor(f)))
			hiOpen = false
		}
		hi = &nv
	}
	return ix.lookupRange(lo, hi, loOpen, hiOpen)
}

// normalizeProbe converts a lookup value to the column's kind where that
// preserves equality semantics. exact=false means the value can never
// exactly equal a stored value of that kind (non-integral float vs int).
func normalizeProbe(colKind val.Kind, v val.Value) (_ val.Value, exact bool) {
	if v.IsNull() || v.Kind() == colKind {
		return v, true
	}
	switch {
	case colKind == val.KindFloat && v.Kind() == val.KindInt:
		f, _ := v.AsFloat()
		return val.Float(f), true
	case colKind == val.KindInt && v.Kind() == val.KindFloat:
		f, _ := v.AsFloat()
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return val.Int(int64(f)), true
		}
		return v, false
	}
	return v, true
}

// IndexOn returns the name of an index whose first column is the given
// column (preferring ordered for ranged=true), or "".
func (t *Table) IndexOn(col string, ranged bool) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return ""
	}
	best := ""
	for name, ix := range t.indexes {
		if len(ix.cols) >= 1 && ix.cols[0] == ci && len(ix.cols) == 1 {
			if ranged && ix.Kind != OrderedIndex {
				continue
			}
			if best == "" || name < best {
				best = name
			}
		}
	}
	return best
}

// applyInsert stores the row (already validated), maintaining indexes.
// Caller holds t.mu.
func (t *Table) applyInsert(id RowID, r Row) {
	t.rows[id] = t.packRow(r)
	if id >= t.nextID {
		t.nextID = id + 1
	}
	if t.pk != nil {
		t.pk[t.schema.pkKey(r)] = id
	}
	for _, ix := range t.indexes {
		ix.insert(ix.keyFor(r), id)
	}
}

// applyUpdate replaces row id with newRow. Caller holds t.mu.
func (t *Table) applyUpdate(id RowID, old, newRow Row) {
	t.rows[id] = t.packRow(newRow)
	if t.pk != nil {
		delete(t.pk, t.schema.pkKey(old))
		t.pk[t.schema.pkKey(newRow)] = id
	}
	for _, ix := range t.indexes {
		ok, nk := ix.keyFor(old), ix.keyFor(newRow)
		if ok != nk {
			ix.remove(ok, id)
			ix.insert(nk, id)
		}
	}
}

// applyDelete removes row id. Caller holds t.mu.
func (t *Table) applyDelete(id RowID, old Row) {
	delete(t.rows, id)
	if t.pk != nil {
		delete(t.pk, t.schema.pkKey(old))
	}
	for _, ix := range t.indexes {
		ix.remove(ix.keyFor(old), id)
	}
}

package columnar

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// buildSegment seals rows (parallel slices, already in RowID order)
// the way the store does: append to a tail, encode its vectors.
func buildSegment(table string, schema *storage.Schema, ids []storage.RowID, lsns []uint64, rows []storage.Row) (*Segment, error) {
	t := newTail(schema)
	for i, row := range rows {
		if err := t.append(ids[i], lsns[i], lsns[i], row); err != nil {
			return nil, err
		}
	}
	return encodeSegment(t.view(table))
}

// viewRows materializes every row of a segment or tail view, dead or
// not.
func viewRows(seg *Segment) []storage.Row {
	var out []storage.Row
	r := seg.NewReader(nil)
	var b Batch
	for r.Next(&b) {
		for i := 0; i < b.Len; i++ {
			row := make(storage.Row, len(seg.schema.Columns))
			b.MaterializeRow(row, i)
			out = append(out, row)
		}
	}
	return out
}

// idleManager attaches a manager whose background sealer never fires,
// so the test decides when and where the tail is cut.
func idleManager(t *testing.T, db *storage.DB) *Manager {
	return attach(t, db, Config{SealRows: 1 << 30, SealInterval: time.Hour})
}

// TestTailServedWithoutSegments: a table that has never been sealed is
// still scannable in columnar form — the snapshot's tail holds its
// rows, with zone maps that prune like a segment's.
func TestTailServedWithoutSegments(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 300, 4)
	snap := m.Table("events").Snapshot()
	if len(snap.Segs) != 0 || snap.Tail.Seg == nil || snap.Tail.Seg.Rows() != 300 {
		t.Fatalf("snapshot: %d segments, tail %+v", len(snap.Segs), snap.Tail.Seg)
	}
	tbl, _ := db.Table("events")
	ids, rows := tbl.ScanRows()
	byID := make(map[storage.RowID]storage.Row, len(ids))
	for i, id := range ids {
		byID[id] = rows[i]
	}
	for i, row := range viewRows(snap.Tail.Seg) {
		if want := byID[snap.Tail.Seg.RowID(i)]; !rowsEqual(row, want) {
			t.Fatalf("tail row %d = %v, table has %v", i, row, want)
		}
	}
	z := snap.Tail.Seg.Zone(0)
	if !z.OK || !val.Equal(z.Min, val.Int(0)) || !val.Equal(z.Max, val.Int(299)) {
		t.Fatalf("running id zone = %+v", z)
	}
	if got := m.Stats()[0]; got.PendingRows != 300 || got.Segments != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestTailSnapshotIsStable: appends — including ones that reallocate
// every vector — dead marks and a seal after a snapshot change nothing
// the snapshot shows.
func TestTailSnapshotIsStable(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 100, 6)
	st := m.Table("events")
	snap := st.Snapshot()
	before := viewRows(snap.Tail.Seg)

	rng := rand.New(rand.NewSource(8))
	for i := 100; i < 5000; i++ {
		if _, err := db.Insert("events", randEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteRow("events", snap.Tail.Seg.RowID(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}

	if snap.Tail.Seg.Rows() != 100 || snap.Tail.HasDead() {
		t.Fatalf("snapshot changed: %d rows, dead=%v", snap.Tail.Seg.Rows(), snap.Tail.HasDead())
	}
	for i, row := range viewRows(snap.Tail.Seg) {
		if !rowsEqual(row, before[i]) {
			t.Fatalf("row %d changed under the snapshot: %v, was %v", i, row, before[i])
		}
	}
	if now := st.Snapshot(); now.Tail.Seg != nil || now.SealedRows() != 5000 {
		t.Fatalf("after compact: tail %v, %d sealed", now.Tail.Seg, now.SealedRows())
	}
}

// TestSealCutsWholeCommitsAndKeepsSuffix drives the sealer by hand: a
// target that lands inside a commit extends to its end, several
// segments come out of one pass, and what stays in the tail keeps its
// rows, its dead marks and its zone maps.
func TestSealCutsWholeCommitsAndKeepsSuffix(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	next := 0
	commit := func(n int) {
		txn := db.Begin()
		for i := 0; i < n; i++ {
			if err := txn.Insert("events", map[string]val.Value{"id": val.Int(int64(next)), "sym": val.String(testSyms[next%5])}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(100) // ids 0..99
	commit(100) // ids 100..199
	commit(30)  // ids 200..229
	st := m.Table("events")
	lastID := st.Snapshot().Tail.Seg.RowID(229)
	if err := db.DeleteRow("events", lastID); err != nil {
		t.Fatal(err)
	}

	if !m.seal(st, 64) {
		t.Fatal("nothing sealed")
	}
	snap := st.Snapshot()
	if len(snap.Segs) != 2 || snap.Segs[0].Seg.Rows() != 100 || snap.Segs[1].Seg.Rows() != 100 {
		t.Fatalf("want two whole-commit segments of 100 rows, got %d segments (%d sealed rows)", len(snap.Segs), snap.SealedRows())
	}
	tail := snap.Tail
	if tail.Seg == nil || tail.Seg.Rows() != 30 {
		t.Fatalf("tail after seal = %+v, want the 30-row commit", tail.Seg)
	}
	if !tail.IsDead(29) || tail.IsDead(0) {
		t.Error("the delete's dead mark did not move with its row")
	}
	if z := tail.Seg.Zone(0); !z.OK || !val.Equal(z.Min, val.Int(200)) || !val.Equal(z.Max, val.Int(229)) {
		t.Errorf("suffix id zone = %+v, want [200, 229]", z)
	}
	if first, _, _, _ := tail.Seg.Bounds(); first != snap.Segs[1].Seg.RowID(99)+1 {
		t.Errorf("tail starts at row id %d, right after the sealed rows is %d", first, snap.Segs[1].Seg.RowID(99)+1)
	}
}

// TestSuffixMatchesAppends: the suffix a seal leaves behind is copied
// as vector ranges; it must be the tail that appending the same rows
// one by one builds — vectors, dictionary, zones, dead marks — for
// every kind, with NULLs, and from any cut.
func TestSuffixMatchesAppends(t *testing.T) {
	schema := eventsSchema(t)
	rng := rand.New(rand.NewSource(11))
	const n = 500
	full := newTail(schema)
	rows := make([]storage.Row, n)
	for i := range rows {
		ev := randEvent(rng, i)
		rows[i] = make(storage.Row, len(schema.Columns))
		for ci, c := range schema.Columns {
			rows[i][ci] = ev[c.Name] // a missing key is NULL
		}
		if i >= 300 && i < 340 {
			rows[i] = storage.Row{val.Int(int64(i)), val.Null, val.Null, val.Null, val.Null, val.Null, val.Null}
		}
		if err := full.append(storage.RowID(i+1), uint64(i/7+1), uint64(i/7+1), rows[i]); err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			full.markDead(i)
		}
	}
	for _, from := range []int{0, 1, 250, 300, 340, n - 1, n} {
		want := newTail(schema)
		for i := from; i < n; i++ {
			if err := want.append(storage.RowID(i+1), uint64(i/7+1), uint64(i/7+1), rows[i]); err != nil {
				t.Fatal(err)
			}
			if i%13 == 0 {
				want.markDead(i - from)
			}
		}
		if got := full.suffix(from); !reflect.DeepEqual(got, want) {
			t.Errorf("suffix(%d) differs from the tail its rows build when appended", from)
			for ci := range got.cols {
				if !reflect.DeepEqual(got.cols[ci], want.cols[ci]) {
					t.Logf("column %s:\n got %+v\nwant %+v", schema.Columns[ci].Name, got.cols[ci], want.cols[ci])
				}
			}
		}
	}

	// A NaN anywhere in the range leaves the column unprunable.
	nan := newTail(schema)
	for i, f := range []float64{1, 2, mathNaN(), 4} {
		row := storage.Row{val.Int(int64(i)), val.Null, val.Null, val.Float(f), val.Null, val.Null, val.Null}
		if err := nan.append(storage.RowID(i+1), 0, 0, row); err != nil {
			t.Fatal(err)
		}
	}
	if z := nan.suffix(1).cols[3].zone.done(); z.OK {
		t.Errorf("zone over a NaN = %+v, want not OK", z)
	}
	if z := nan.suffix(3).cols[3].zone.done(); !z.OK || !val.Equal(z.Min, val.Float(4)) {
		t.Errorf("zone past the NaN = %+v, want [4, 4]", z)
	}
}

// TestModifiedSpansTailAndSegments: an updated row is in the modified
// set and dead in its columnar copy whether that copy is in the tail
// or sealed, the entry survives the seal, and a delete removes it.
func TestModifiedSpansTailAndSegments(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 100, 5)
	st := m.Table("events")
	tail := st.Snapshot().Tail.Seg
	upTail, delTail, upThenDel := tail.RowID(10), tail.RowID(20), tail.RowID(30)
	update := func(id storage.RowID) {
		t.Helper()
		if err := db.UpdateRow("events", id, map[string]val.Value{"qty": val.Int(9999)}); err != nil {
			t.Fatal(err)
		}
	}
	update(upTail)
	update(upTail) // idempotent
	update(upThenDel)
	for _, id := range []storage.RowID{delTail, upThenDel} {
		if err := db.DeleteRow("events", id); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		snap := st.Snapshot()
		if len(snap.Modified) != 1 || !snap.InRowStore(upTail) {
			t.Fatalf("%s: modified = %v, want exactly [%d]", when, snap.Modified, upTail)
		}
		live := segRows(t, st) // sealed rows, then the tail's
		for i := 0; snap.Tail.Seg != nil && i < snap.Tail.Seg.Rows(); i++ {
			if !snap.Tail.IsDead(i) {
				live[snap.Tail.Seg.RowID(i)] = nil
			}
		}
		for _, id := range []storage.RowID{upTail, delTail, upThenDel} {
			if _, ok := live[id]; ok {
				t.Fatalf("%s: row %d still live in its columnar copy", when, id)
			}
		}
		if len(live) != 97 {
			t.Fatalf("%s: %d live columnar rows, want 97", when, len(live))
		}
	}
	check("in the tail")
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	check("after the seal")
	if got := st.Stats(); got.DeadRows != 3 || got.SealedRows != 100 {
		t.Fatalf("stats after seal = %+v", got)
	}
	if err := db.DeleteRow("events", upTail); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot(); len(snap.Modified) != 0 {
		t.Fatalf("deleting the updated row left modified = %v", snap.Modified)
	}
}

// TestReaderFillMatchesEager: a column decoded late, for only some
// batches and starting past the first, reads the same values as one
// decoded by every Next — whole, or at a selection only. This is what
// lets a scan skip the non-predicate columns of batches with no
// selected row, and decode the rest at the rows it selected.
func TestReaderFillMatchesEager(t *testing.T) {
	schema := eventsSchema(t)
	rng := rand.New(rand.NewSource(17))
	n := 3*BatchSize + 77
	rows := make([]storage.Row, n)
	ids := make([]storage.RowID, n)
	lsns := make([]uint64, n)
	for i := range rows {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], ids[i], lsns[i] = r, storage.RowID(i+1), uint64(i+1)
	}
	seg, err := buildSegment("events", schema, ids, lsns, rows)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]bool, len(schema.Columns))
	first[0] = true
	all := make([]bool, len(schema.Columns))
	for i := range all {
		all[i] = true
	}
	got := make(storage.Row, len(schema.Columns))
	for _, selective := range []bool{false, true} {
		rd := seg.NewReader(first)
		var b Batch
		for batch := 0; rd.Next(&b); batch++ {
			if batch == 0 || batch == 2 {
				continue // never filled: no later batch may depend on it
			}
			var sel []int32
			for i := 0; selective && i < b.Len; i++ {
				if rng.Intn(7) == 0 {
					sel = append(sel, int32(i))
				}
			}
			rd.Fill(&b, all, sel)
			if !selective {
				sel = allRows[:b.Len]
			}
			for _, i := range sel {
				b.MaterializeRow(got, int(i))
				if want := rows[b.Start+int(i)]; !rowsEqual(got, want) {
					t.Fatalf("row %d filled late (selective %v) = %v, want %v", b.Start+int(i), selective, got, want)
				}
			}
		}
	}
}

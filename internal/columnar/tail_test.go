package columnar

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"eventdb/internal/expr"
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
// read whole from its hot rows, behind one zone per column that prunes
// like a segment's, and its inserts are staged for the sealer.
func TestTailServedWithoutSegments(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 300, 4)
	tbl, _ := db.Table("events")
	var zone storage.Zone
	v := tbl.View(func(z storage.Zones, rows int) bool {
		zone = z.Zone(0)
		return rows == 300
	})
	if len(v.Runs) != 0 || v.Pruned != 0 {
		t.Fatalf("view: %d runs, %d pruned", len(v.Runs), v.Pruned)
	}
	ids, rows := tbl.ScanRows()
	byID := make(map[storage.RowID]storage.Row, len(ids))
	for i, id := range ids {
		byID[id] = rows[i]
	}
	n := 0
	v.Hot(func(id storage.RowID, row storage.Row) bool {
		if want := byID[id]; !rowsEqual(row, want) {
			t.Fatalf("hot row %d = %v, table has %v", id, row, want)
		}
		n++
		return true
	})
	if n != 300 {
		t.Fatalf("view holds %d hot rows, want 300", n)
	}
	if !zone.OK || !val.Equal(zone.Min, val.Int(0)) || !val.Equal(zone.Max, val.Int(299)) {
		t.Fatalf("hot id zone = %+v", zone)
	}
	pruned := 0
	tbl.View(func(z storage.Zones, rows int) bool {
		p, err := expr.Compile("id > 299")
		if err != nil {
			t.Fatal(err)
		}
		eqs, ranges := p.Indexable()
		return Admits(tbl.Schema(), z, rows, eqs, ranges)
	}).Hot(func(storage.RowID, storage.Row) bool { pruned++; return true })
	if pruned != 0 {
		t.Fatalf("id > 299 read %d hot rows, want the zone to exclude all", pruned)
	}
	if got := m.Stats()[0]; got.PendingRows != 300 || got.Segments != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestTailSnapshotIsStable: appends — including ones that reallocate
// every vector — a delete and a seal after a view was taken change
// nothing the view shows: neither a table's View nor the sealer's view
// of its tail.
func TestTailSnapshotIsStable(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 100, 6)
	st := m.Table("events")
	tbl, _ := db.Table("events")
	hot := func(v *storage.View) (ids []storage.RowID, rows []storage.Row) {
		v.Hot(func(id storage.RowID, r storage.Row) bool {
			ids, rows = append(ids, id), append(rows, slices.Clone(r))
			return true
		})
		return ids, rows
	}
	v := tbl.View(nil)
	ids, before := hot(v)
	st.mu.RLock()
	staged := st.tail.view(st.table)
	st.mu.RUnlock()
	stagedBefore := viewRows(staged)

	rng := rand.New(rand.NewSource(8))
	for i := 100; i < 5000; i++ {
		if _, err := db.Insert("events", randEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteRow("events", ids[7]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}

	if gotIDs, got := hot(v); !slices.Equal(gotIDs, ids) || len(got) != 100 {
		t.Fatalf("view changed: %d hot rows", len(got))
	} else {
		for i, row := range got {
			if !rowsEqual(row, before[i]) {
				t.Fatalf("row %d changed under the view: %v, was %v", ids[i], row, before[i])
			}
		}
	}
	if staged.Rows() != 100 {
		t.Fatalf("staged view changed: %d rows", staged.Rows())
	}
	for i, row := range viewRows(staged) {
		if !rowsEqual(row, stagedBefore[i]) {
			t.Fatalf("staged row %d changed under the view: %v, was %v", i, row, stagedBefore[i])
		}
	}
	if s := st.Stats(); s.PendingRows != 0 || s.SealedRows != 5000 || s.ColdRows != 4999 || len(hotIDs(tbl)) != 0 {
		t.Fatalf("after compact: %+v, %d hot rows", s, len(hotIDs(tbl)))
	}
}

// TestSealCutsWholeCommitsAndKeepsSuffix drives the sealer by hand: a
// target that lands inside a commit extends to its end, several
// segments come out of one pass, and what stays in the tail keeps its
// rows.
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

	if !m.seal(st, 64) {
		t.Fatal("nothing sealed")
	}
	tbl, _ := db.Table("events")
	segs := runs(tbl)
	if len(segs) != 2 || segs[0].Rows() != 100 || segs[1].Rows() != 100 {
		t.Fatalf("want two whole-commit segments of 100 rows, got %d segments (%d sealed rows)", len(segs), st.Stats().SealedRows)
	}
	if n := st.tail.len(); n != 30 {
		t.Fatalf("tail after seal holds %d rows, want the 30-row commit", n)
	}
	if first := st.tail.ids[0]; first != segs[1].RowID(99)+1 {
		t.Errorf("tail starts at row id %d, right after the sealed rows is %d", first, segs[1].RowID(99)+1)
	}
	for i, row := range viewRows(st.tail.view(st.table)) {
		if id, _ := row[0].AsInt(); id != int64(200+i) {
			t.Fatalf("tail row %d has id %d, want %d", i, id, 200+i)
		}
	}
}

// TestSuffixMatchesAppends: the suffix a seal leaves behind is copied
// as vector ranges; it must be the tail that appending the same rows
// one by one builds — vectors and dictionary — for every kind, with
// NULLs, and from any cut.
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
	}
	for _, from := range []int{0, 1, 250, 300, 340, n - 1, n} {
		want := newTail(schema)
		for i := from; i < n; i++ {
			if err := want.append(storage.RowID(i+1), uint64(i/7+1), uint64(i/7+1), rows[i]); err != nil {
				t.Fatal(err)
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

}

// TestModifiedSpansTailAndSegments: an updated row is hot, and no
// segment serves it, whether its insert was sealed before the update or
// after; a delete removes it.
func TestModifiedSpansTailAndSegments(t *testing.T) {
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 100, 5)
	st := m.Table("events")
	tbl, _ := db.Table("events")
	staged := st.tail.ids
	upTail, delTail, upThenDel := staged[10], staged[20], staged[30]
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
	check := func(when string, hot int) {
		t.Helper()
		ids := hotIDs(tbl)
		if len(ids) != hot || !slices.Contains(ids, upTail) {
			t.Fatalf("%s: %d hot rows, want %d with %d among them", when, len(ids), hot, upTail)
		}
		live := segRows(t, st)
		for _, id := range []storage.RowID{upTail, delTail, upThenDel} {
			if _, ok := live[id]; ok {
				t.Fatalf("%s: row %d still served by a segment", when, id)
			}
		}
		if len(live)+len(ids) != 98 {
			t.Fatalf("%s: %d rows in segments and %d hot, want 98 in all", when, len(live), len(ids))
		}
	}
	check("unsealed", 98)
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	check("after the seal", 1)
	if got := st.Stats(); got.DeadRows != 3 || got.SealedRows != 100 {
		t.Fatalf("stats after seal = %+v", got)
	}
	if err := db.DeleteRow("events", upTail); err != nil {
		t.Fatal(err)
	}
	if ids := hotIDs(tbl); len(ids) != 0 {
		t.Fatalf("deleting the updated row left hot rows %v", ids)
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

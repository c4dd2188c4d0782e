package columnar

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// buildSegment seals rows (parallel to ids, ascending) the way a cut
// does: from their images.
func buildSegment(table string, schema *storage.Schema, ids []storage.RowID, rows []storage.Row) (*Segment, error) {
	imgs := make([]string, len(rows))
	for i, r := range rows {
		imgs[i] = enc(r)
	}
	return encodeSegment(table, schema, ids, imgs)
}

// viewRows materializes every row of a segment, dead or not.
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

// idleManager attaches a manager whose background sealer never fires
// and whose ranges are wider than any test's table, so the test decides
// when the history is cut, by Compact.
func idleManager(t *testing.T, db *storage.DB) *Manager {
	return attach(t, db, Config{SealRows: 1 << 30, SealInterval: time.Hour})
}

// TestTailServedWithoutSegments: a table that has never been sealed is
// read whole from its hot rows, behind one zone per column that prunes
// like a segment's, and its ids are pending for the sealer.
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
		return Admits(tbl.Schema(), z, rows, p.Atoms)
	}).Hot(func(storage.RowID, storage.Row) bool { pruned++; return true })
	if pruned != 0 {
		t.Fatalf("id > 299 read %d hot rows, want the zone to exclude all", pruned)
	}
	if got := m.Stats()[0]; got.PendingRows != 300 || got.Segments != 0 {
		t.Fatalf("stats = %+v", got)
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
	staged := hotIDs(tbl)
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
	for i := range rows {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], ids[i] = r, storage.RowID(i+1)
	}
	seg, err := buildSegment("events", schema, ids, rows)
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

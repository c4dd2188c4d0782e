package storage

import (
	"strings"
	"testing"

	"eventdb/internal/val"
)

// fakeRun is a Sealed over rows held as they are.
type fakeRun struct {
	ids  []RowID
	rows []Row
}

func (f *fakeRun) Rows() int               { return len(f.rows) }
func (f *fakeRun) RowID(i int) RowID       { return f.ids[i] }
func (f *fakeRun) At(col, i int) val.Value { return f.rows[i][col] }
func (f *fakeRun) Zone(int) Zone           { return Zone{} }

func (f *fakeRun) DecodeRows(want []uint64, fn func(i int, r Row) bool) bool {
	for i, r := range f.rows {
		if (want == nil || want[i/64]&(1<<uint(i%64)) != 0) && !fn(i, append(Row(nil), r...)) {
			return false
		}
	}
	return true
}

// images returns the images a cut takes of run's rows, every one of
// them hot and as inserted.
func (f *fakeRun) images(t *testing.T, tbl *Table) []string {
	t.Helper()
	ids, imgs := tbl.Images(f.ids[0], f.ids[len(f.ids)-1]+1)
	if len(ids) != len(f.ids) {
		t.Fatalf("a cut takes %d of the run's %d rows", len(ids), len(f.ids))
	}
	return imgs
}

// TestEvictKeepsARowRewrittenMeanwhile cuts a table's rows, updates
// one of them, and then hands the table the run of what the cut took:
// that row must stay in the row store with its new image, and the
// others leave it.
func TestEvictKeepsARowRewrittenMeanwhile(t *testing.T) {
	db := openVolatile(t)
	s, err := NewSchema("e", []Column{{Name: "k", Kind: val.KindInt}, {Name: "v", Kind: val.KindString}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	run := &fakeRun{}
	for k := int64(1); k <= 4; k++ {
		r := Row{val.Int(k), val.String("old")}
		id, err := db.InsertRow("e", r)
		if err != nil {
			t.Fatal(err)
		}
		run.ids, run.rows = append(run.ids, id), append(run.rows, r)
	}
	tbl, _ := db.Table("e")
	imgs := run.images(t, tbl)
	if err := db.UpdateRow("e", run.ids[1], map[string]val.Value{"v": val.String("new")}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Evict(run, imgs); n != 3 {
		t.Fatalf("Evict = %d, want 3", n)
	}
	if n, c := tbl.Len(), tbl.cold; n != 4 || c != 3 {
		t.Fatalf("Len %d, ColdRows %d; want 4 and 3", n, c)
	}
	for i, id := range run.ids {
		want := "old"
		if i == 1 {
			want = "new"
		}
		if r, ok := tbl.Get(id); !ok || r[1] != val.String(want) {
			t.Errorf("row %d = %v %v, want v = %q", id, r, ok, want)
		}
	}
}

// TestSparseRunGoesBack deletes evicted rows until a quarter of their
// run is left: the rest return to the row store, and the table lets go
// of the run.
func TestSparseRunGoesBack(t *testing.T) {
	db := openVolatile(t)
	s, err := NewSchema("e", []Column{{Name: "k", Kind: val.KindInt}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	run := &fakeRun{}
	for k := int64(1); k <= 8; k++ {
		id, err := db.InsertRow("e", Row{val.Int(k)})
		if err != nil {
			t.Fatal(err)
		}
		run.ids, run.rows = append(run.ids, id), append(run.rows, Row{val.Int(k)})
	}
	tbl, _ := db.Table("e")
	if n := tbl.Evict(run, run.images(t, tbl)); n != 8 {
		t.Fatalf("Evict = %d, want 8", n)
	}
	for i, id := range run.ids[:6] {
		if err := db.DeleteRow("e", id); err != nil {
			t.Fatal(err)
		}
		if cold, want := tbl.cold, 7-i; i < 5 && cold != want {
			t.Fatalf("after %d deletes ColdRows = %d, want %d", i+1, cold, want)
		}
	}
	if n, c := tbl.Len(), tbl.cold; n != 2 || c != 0 || len(tbl.runs) != 0 {
		t.Fatalf("Len %d, ColdRows %d, %d runs; want 2, 0 and none", n, c, len(tbl.runs))
	}
	if len(tbl.pk) != 2 {
		t.Errorf("%d key entries after the run went back, want its 2 rows'", len(tbl.pk))
	}
	for _, id := range run.ids[6:] {
		if r, _, ok := tbl.GetByPK(run.rows[id-1][0]); !ok || r[0] != run.rows[id-1][0] {
			t.Errorf("row %d = %v %v after the run went back", id, r, ok)
		}
	}
}

// keyedTable makes table e (k, the key; v) with one row per key and
// returns it with a run holding those rows.
func keyedTable(t *testing.T, keys ...val.Value) (*DB, *Table, *fakeRun) {
	t.Helper()
	db := openVolatile(t)
	s, err := NewSchema("e", []Column{{Name: "k", Kind: val.KindInt}, {Name: "v", Kind: val.KindString}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	run := &fakeRun{}
	for _, k := range keys {
		r := Row{k, val.String("v")}
		id, err := db.InsertRow("e", r)
		if err != nil {
			t.Fatal(err)
		}
		run.ids, run.rows = append(run.ids, id), append(run.rows, r)
	}
	tbl, _ := db.Table("e")
	return db, tbl, run
}

func ints(from, to int64) []val.Value {
	var out []val.Value
	for k := from; k <= to; k++ {
		out = append(out, val.Int(k))
	}
	return out
}

// TestKeyedRunIsItsKeyIndex hands a table a run of int keys, ascending
// and shuffled: its rows leave the key map, and every key probe finds
// them in the run instead — GetByPK, an insert's uniqueness check, a
// re-keying update's — as long as they are live, and with exactly the
// matches the map would give.
func TestKeyedRunIsItsKeyIndex(t *testing.T) {
	for name, keys := range map[string][]val.Value{
		"ascending": ints(1, 8),
		"shuffled":  {val.Int(5), val.Int(2), val.Int(8), val.Int(1), val.Int(7), val.Int(3), val.Int(6), val.Int(4)},
	} {
		db, tbl, run := keyedTable(t, keys...)
		if n := tbl.Evict(run, run.images(t, tbl)); n != 8 || len(tbl.pk) != 0 || (tbl.runs[0].order == nil) != (name == "ascending") {
			t.Fatalf("%s: Evict = %d with %d key entries left, key order %v; want 8, none and an order only when shuffled", name, n, len(tbl.pk), tbl.runs[0].order)
		}
		idOf := map[int64]RowID{}
		for i, k := range keys {
			n, _ := k.AsInt()
			idOf[n] = run.ids[i]
		}
		for k, id := range idOf {
			if r, got, ok := tbl.GetByPK(val.Int(k)); !ok || got != id || r[0] != val.Int(k) {
				t.Errorf("%s: GetByPK(%d) = %v %d %v, want row %d", name, k, r, got, ok, id)
			}
		}
		for _, miss := range []val.Value{val.Int(0), val.Int(9), val.Float(3), val.String("3"), val.Null} {
			if _, _, ok := tbl.GetByPK(miss); ok {
				t.Errorf("%s: GetByPK(%v) found a row", name, miss)
			}
		}
		if _, _, ok := tbl.GetByPK(val.Int(3), val.Int(3)); ok {
			t.Errorf("%s: GetByPK of two values found a row", name)
		}
		dup := func(err error) bool { return err != nil && strings.Contains(err.Error(), "duplicate primary key") }
		if _, err := db.InsertRow("e", Row{val.Int(3), val.String("w")}); !dup(err) {
			t.Errorf("%s: insert of an evicted row's key: %v, want a duplicate key", name, err)
		}
		if err := db.UpdateRow("e", idOf[5], map[string]val.Value{"k": val.Int(6)}); !dup(err) {
			t.Errorf("%s: update onto an evicted row's key: %v, want a duplicate key", name, err)
		}
		// A deleted row's key is free.
		if err := db.DeleteRow("e", idOf[2]); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := tbl.GetByPK(val.Int(2)); ok {
			t.Errorf("%s: GetByPK(2) found the deleted row", name)
		}
		if _, err := db.InsertRow("e", Row{val.Int(2), val.String("w")}); err != nil {
			t.Errorf("%s: insert of a deleted row's key: %v", name, err)
		}
		// So is one an earlier op of the transaction moved an evicted row
		// off.
		txn := db.Begin()
		txn.Update("e", idOf[4], map[string]val.Value{"k": val.Int(40)})
		txn.Update("e", idOf[7], map[string]val.Value{"k": val.Int(4)})
		txn.InsertRow("e", Row{val.Int(7), val.String("w")})
		if _, err := txn.Commit(); err != nil {
			t.Fatalf("%s: moving keys 4 → 40 and 7 → 4, then inserting 7: %v", name, err)
		}
		for k, id := range map[int64]RowID{40: idOf[4], 4: idOf[7], 8: idOf[8]} {
			if _, got, ok := tbl.GetByPK(val.Int(k)); !ok || got != id {
				t.Errorf("%s: GetByPK(%d) = %d %v, want row %d", name, k, got, ok, id)
			}
		}
	}
}

// TestNullKeyRunKeepsItsEntries hands a table a run one of whose keys
// is NULL: its rows leave the row store but keep their key entries, and
// their keys are found and taken as before.
func TestNullKeyRunKeepsItsEntries(t *testing.T) {
	keys := []val.Value{val.Int(1), val.Int(2), val.Null, val.Int(4)}
	db, tbl, run := keyedTable(t, keys...)
	if n := tbl.Evict(run, run.images(t, tbl)); n != 4 || len(tbl.pk) != 4 || tbl.runs[0].keyed {
		t.Fatalf("Evict = %d with %d key entries; want 4 and 4, unkeyed", n, len(tbl.pk))
	}
	for i, k := range keys {
		if _, id, ok := tbl.GetByPK(k); !ok || id != run.ids[i] {
			t.Errorf("GetByPK(%v) = %d %v, want row %d", k, id, ok, run.ids[i])
		}
		if _, err := db.InsertRow("e", Row{k, val.String("w")}); err == nil {
			t.Errorf("insert of key %v was accepted twice", k)
		}
	}
}

// TestNoOpRewriteStaysSealed rewrites evicted rows to the values they
// hold, more of them than SparseDiv lets a run keep: each stays in its
// run, with no hot copy and no wider hot zone, and the commit hook is
// still handed the update.
func TestNoOpRewriteStaysSealed(t *testing.T) {
	db, tbl, run := keyedTable(t, ints(1, 8)...)
	if n := tbl.Evict(run, run.images(t, tbl)); n != 8 {
		t.Fatalf("Evict = %d, want 8", n)
	}
	var seen []Change
	db.OnCommit(func(ci *CommitInfo) { seen = append(seen, ci.Changes...) })
	for _, id := range run.ids[:7] {
		if err := db.UpdateRow("e", id, map[string]val.Value{"v": val.String("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.runs) != 1 || tbl.cold != 8 || len(tbl.rows) != 0 || tbl.hot[1].z.OK {
		t.Fatalf("%d runs, %d cold rows, %d hot, hot zone %+v; want the run whole and nothing hot", len(tbl.runs), tbl.cold, len(tbl.rows), tbl.hot[1].z)
	}
	if len(seen) != 7 || seen[0].Kind != Update || seen[0].Old[1] != val.String("v") || seen[0].New[1] != val.String("v") {
		t.Fatalf("commit hook saw %+v, want 7 updates", seen)
	}
	if err := db.UpdateRow("e", run.ids[0], map[string]val.Value{"v": val.String("w")}); err != nil {
		t.Fatal(err)
	}
	if r, ok := tbl.Get(run.ids[0]); !ok || r[1] != val.String("w") || tbl.cold != 7 {
		t.Fatalf("after a real rewrite: %v %v, %d cold rows; want v = w and 7", r, ok, tbl.cold)
	}
}

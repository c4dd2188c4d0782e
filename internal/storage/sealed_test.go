package storage

import (
	"testing"

	"eventdb/internal/val"
)

// fakeRun is a Sealed over rows held as they are; meanwhile runs after
// DecodeRows has handed out its last row, before it returns.
type fakeRun struct {
	ids       []RowID
	rows      []Row
	meanwhile func()
}

func (f *fakeRun) Rows() int                { return len(f.rows) }
func (f *fakeRun) RowID(i int) RowID        { return f.ids[i] }
func (f *fakeRun) DecodeRow(dst Row, i int) { copy(dst, f.rows[i]) }
func (f *fakeRun) Zone(int) Zone            { return Zone{} }

func (f *fakeRun) DecodeRows(want []uint64, fn func(i int, r Row) bool) bool {
	for i, r := range f.rows {
		if (want == nil || want[i/64]&(1<<uint(i%64)) != 0) && !fn(i, append(Row(nil), r...)) {
			return false
		}
	}
	if f.meanwhile != nil {
		f.meanwhile()
	}
	return true
}

// TestEvictKeepsARowRewrittenMeanwhile hands a table a run whose rows
// all match, and updates one of them after Evict has compared it but
// before it evicts: that row must stay in the row store with its new
// image, and the others leave it.
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
	run.meanwhile = func() {
		if err := db.UpdateRow("e", run.ids[1], map[string]val.Value{"v": val.String("new")}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("e")
	if n := tbl.Evict(run); n != 3 {
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
	if n := tbl.Evict(run); n != 8 {
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
	for _, id := range run.ids[6:] {
		if r, _, ok := tbl.GetByPK(run.rows[id-1][0]); !ok || r[0] != run.rows[id-1][0] {
			t.Errorf("row %d = %v %v after the run went back", id, r, ok)
		}
	}
}

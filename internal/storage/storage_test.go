package storage

import (
	"fmt"
	"testing"

	"eventdb/internal/val"
)

func mustSchema(t *testing.T, name string, cols []Column, pk ...string) *Schema {
	t.Helper()
	s, err := NewSchema(name, cols, pk...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tradesSchema(t *testing.T) *Schema {
	return mustSchema(t, "trades", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
		{Name: "price", Kind: val.KindFloat, NotNull: true},
		{Name: "qty", Kind: val.KindInt},
		{Name: "note", Kind: val.KindString, Default: val.String("-")},
	}, "id")
}

func openVolatile(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func vmap(pairs ...any) map[string]val.Value {
	m := map[string]val.Value{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i].(string)] = val.MustFromAny(pairs[i+1])
	}
	return m
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Kind: val.KindInt}}); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewSchema("t", nil); err == nil {
		t.Error("empty columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Kind: val.KindInt}}, "nope"); err == nil {
		t.Error("pk over missing column accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: ""}}); err == nil {
		t.Error("empty column name accepted")
	}
}

func TestInsertAndGet(t *testing.T) {
	db := openVolatile(t)
	if err := db.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("trades", vmap("id", 1, "sym", "ACME", "price", 10.5, "qty", 100))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("trades")
	row, ok := tbl.Get(id)
	if !ok {
		t.Fatal("row not found")
	}
	if !val.Equal(row[1], val.String("ACME")) {
		t.Errorf("sym = %v", row[1])
	}
	// Default applied.
	if !val.Equal(row[4], val.String("-")) {
		t.Errorf("default note = %v", row[4])
	}
	// Int accepted into float column (widening).
	id2, err := db.Insert("trades", vmap("id", 2, "sym", "X", "price", 7))
	if err != nil {
		t.Fatal(err)
	}
	row2, _ := tbl.Get(id2)
	if row2[2].Kind() != val.KindFloat {
		t.Errorf("widening failed: price kind = %s", row2[2].Kind())
	}
	// PK lookup.
	got, _, ok := tbl.GetByPK(val.Int(1))
	if !ok || !val.Equal(got[1], val.String("ACME")) {
		t.Error("GetByPK failed")
	}
}

func TestConstraints(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	mustIns := func(pairs ...any) {
		t.Helper()
		if _, err := db.Insert("trades", vmap(pairs...)); err != nil {
			t.Fatal(err)
		}
	}
	mustIns("id", 1, "sym", "A", "price", 1.0)
	// Duplicate PK.
	if _, err := db.Insert("trades", vmap("id", 1, "sym", "B", "price", 2.0)); err == nil {
		t.Error("duplicate PK accepted")
	}
	// NOT NULL.
	if _, err := db.Insert("trades", vmap("id", 2, "price", 2.0)); err == nil {
		t.Error("missing NOT NULL sym accepted")
	}
	// Wrong kind.
	if _, err := db.Insert("trades", vmap("id", 3, "sym", "C", "price", "x")); err == nil {
		t.Error("string into float column accepted")
	}
	// Unknown column.
	if _, err := db.Insert("trades", vmap("id", 4, "sym", "D", "price", 1.0, "bogus", 1)); err == nil {
		t.Error("unknown column accepted")
	}
	// Unknown table.
	if _, err := db.Insert("nope", vmap("a", 1)); err == nil {
		t.Error("unknown table accepted")
	}
	// Atomicity: batch with one bad op applies nothing.
	txn := db.Begin()
	txn.Insert("trades", vmap("id", 10, "sym", "G", "price", 1.0))
	txn.Insert("trades", vmap("id", 1, "sym", "DUP", "price", 1.0)) // dup PK
	if _, err := txn.Commit(); err == nil {
		t.Fatal("batch with dup PK committed")
	}
	tbl, _ := db.Table("trades")
	if _, _, ok := tbl.GetByPK(val.Int(10)); ok {
		t.Error("partial batch applied")
	}
	// Duplicate PK within one transaction.
	txn2 := db.Begin()
	txn2.Insert("trades", vmap("id", 20, "sym", "G", "price", 1.0))
	txn2.Insert("trades", vmap("id", 20, "sym", "H", "price", 1.0))
	if _, err := txn2.Commit(); err == nil {
		t.Error("intra-txn duplicate PK accepted")
	}
}

func TestUpdateDelete(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	id, _ := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	if err := db.UpdateRow("trades", id, vmap("price", 2.5)); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("trades")
	row, _ := tbl.Get(id)
	if !val.Equal(row[2], val.Float(2.5)) {
		t.Errorf("price after update = %v", row[2])
	}
	// PK change via update.
	if err := db.UpdateRow("trades", id, vmap("id", 9)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tbl.GetByPK(val.Int(1)); ok {
		t.Error("old PK still resolves")
	}
	if _, _, ok := tbl.GetByPK(val.Int(9)); !ok {
		t.Error("new PK does not resolve")
	}
	// Update to duplicate PK rejected.
	id2, _ := db.Insert("trades", vmap("id", 2, "sym", "B", "price", 1.0))
	if err := db.UpdateRow("trades", id2, vmap("id", 9)); err == nil {
		t.Error("update to duplicate PK accepted")
	}
	// Delete.
	if err := db.DeleteRow("trades", id); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(id); ok {
		t.Error("row still present after delete")
	}
	if err := db.DeleteRow("trades", id); err == nil {
		t.Error("double delete accepted")
	}
	if err := db.UpdateRow("trades", id, vmap("price", 1.0)); err == nil {
		t.Error("update of deleted row accepted")
	}
	// Delete frees the PK for reuse within the same transaction.
	txn := db.Begin()
	txn.Delete("trades", id2)
	txn.Insert("trades", vmap("id", 2, "sym", "B2", "price", 3.0))
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("delete+reinsert same PK: %v", err)
	}
}

func TestTxnLifecycle(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	txn := db.Begin()
	txn.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	txn.Rollback()
	tbl, _ := db.Table("trades")
	if tbl.Len() != 0 {
		t.Error("rollback applied changes")
	}
	if err := txn.Insert("trades", vmap("id", 2, "sym", "B", "price", 1.0)); err != ErrTxnDone {
		t.Errorf("use after rollback: %v", err)
	}
	txn2 := db.Begin()
	txn2.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	if _, err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn2.Commit(); err != ErrTxnDone {
		t.Errorf("double commit: %v", err)
	}
	// Empty commit is a no-op.
	empty := db.Begin()
	if _, err := empty.Commit(); err != nil {
		t.Errorf("empty commit: %v", err)
	}
	if db.Seq() != 1 {
		t.Errorf("seq = %d, want 1 (empty commit must not bump)", db.Seq())
	}
}

func TestBeforeHooks(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	// Veto hook: reject negative prices.
	remove := db.OnBefore("trades", func(c *Change) error {
		if c.Kind == Delete {
			return nil
		}
		price, _ := c.New[2].AsFloat()
		if price < 0 {
			return fmt.Errorf("negative price")
		}
		return nil
	})
	if _, err := db.Insert("trades", vmap("id", 1, "sym", "A", "price", -1.0)); err == nil {
		t.Error("veto did not abort")
	}
	tbl, _ := db.Table("trades")
	if tbl.Len() != 0 {
		t.Error("vetoed insert applied")
	}
	if _, err := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0)); err != nil {
		t.Fatal(err)
	}
	remove()
	if _, err := db.Insert("trades", vmap("id", 2, "sym", "B", "price", -5.0)); err != nil {
		t.Errorf("hook still active after remove: %v", err)
	}
	// Rewrite hook: clamp qty.
	db.OnBefore("trades", func(c *Change) error {
		if c.Kind == Delete {
			return nil
		}
		if q, ok := c.New[3].AsInt(); ok && q > 100 {
			c.New = append(Row(nil), c.New...)
			c.New[3] = val.Int(100)
		}
		return nil
	})
	id, err := db.Insert("trades", vmap("id", 3, "sym", "C", "price", 1.0, "qty", 500))
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.Get(id)
	if !val.Equal(row[3], val.Int(100)) {
		t.Errorf("rewrite hook did not clamp: qty = %v", row[3])
	}
}

func TestCommitHooksOrderAndPayload(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	var seqs []uint64
	var kinds []ChangeKind
	remove := db.OnCommit(func(ci *CommitInfo) {
		seqs = append(seqs, ci.Seq)
		for _, c := range ci.Changes {
			kinds = append(kinds, c.Kind)
		}
	})
	id, _ := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	db.UpdateRow("trades", id, vmap("price", 2.0))
	db.DeleteRow("trades", id)
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Errorf("commit seqs = %v", seqs)
	}
	want := []ChangeKind{Insert, Update, Delete}
	for i, k := range want {
		if kinds[i] != k {
			t.Errorf("kinds[%d] = %v, want %v", i, kinds[i], k)
		}
	}
	remove()
	db.Insert("trades", vmap("id", 9, "sym", "Z", "price", 1.0))
	if len(seqs) != 3 {
		t.Error("hook fired after removal")
	}
}

func TestChangeOldNewRows(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	var last *CommitInfo
	db.OnCommit(func(ci *CommitInfo) { last = ci })
	id, _ := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	c := last.Changes[0]
	if c.Old != nil || c.New == nil || c.ID != id {
		t.Errorf("insert change wrong: %+v", c)
	}
	db.UpdateRow("trades", id, vmap("price", 2.0))
	c = last.Changes[0]
	if c.Old == nil || c.New == nil {
		t.Fatalf("update change missing rows: %+v", c)
	}
	oldP, _ := c.Old[2].AsFloat()
	newP, _ := c.New[2].AsFloat()
	if oldP != 1.0 || newP != 2.0 {
		t.Errorf("old/new prices = %v/%v", oldP, newP)
	}
	db.DeleteRow("trades", id)
	c = last.Changes[0]
	if c.Old == nil || c.New != nil {
		t.Errorf("delete change wrong: %+v", c)
	}
}

func TestMultiTableTransaction(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	orders := mustSchema(t, "orders", []Column{
		{Name: "oid", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString},
	}, "oid")
	db.CreateTable(orders)
	txn := db.Begin()
	txn.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	txn.Insert("orders", vmap("oid", 1, "sym", "A"))
	info, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Changes) != 2 {
		t.Errorf("changes = %d", len(info.Changes))
	}
	// Atomic failure across tables.
	txn2 := db.Begin()
	txn2.Insert("orders", vmap("oid", 2, "sym", "B"))
	txn2.Insert("trades", vmap("id", 1, "sym", "DUP", "price", 1.0))
	if _, err := txn2.Commit(); err == nil {
		t.Fatal("cross-table dup accepted")
	}
	ot, _ := db.Table("orders")
	if ot.Len() != 1 {
		t.Error("partial cross-table commit applied")
	}
}

func TestRowResolver(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	id, _ := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.5))
	tbl, _ := db.Table("trades")
	row, _ := tbl.Get(id)
	rr := RowResolver{Schema: tbl.Schema(), Row: row}
	if v, ok := rr.Get("sym"); !ok || !val.Equal(v, val.String("A")) {
		t.Errorf("resolver sym = %v %v", v, ok)
	}
	if _, ok := rr.Get("nope"); ok {
		t.Error("resolver resolved missing column")
	}
	pr := RowResolver{Schema: tbl.Schema(), Row: row, Prefix: "new."}
	if v, ok := pr.Get("new.price"); !ok || !val.Equal(v, val.Float(1.5)) {
		t.Errorf("prefixed resolver = %v %v", v, ok)
	}
	if _, ok := pr.Get("price"); ok {
		t.Error("prefixed resolver matched unprefixed name")
	}
	if _, ok := pr.Get("old.price"); ok {
		t.Error("prefixed resolver matched wrong prefix")
	}
}

func TestVersionBumps(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	tbl, _ := db.Table("trades")
	v0 := tbl.Version()
	db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	if tbl.Version() == v0 {
		t.Error("version did not change after commit")
	}
}

func TestScan(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(tradesSchema(t))
	for i := 1; i <= 5; i++ {
		db.Insert("trades", vmap("id", i, "sym", "S", "price", 1.0))
	}
	count := 0
	tbl, _ := db.Table("trades")
	tbl.Scan(func(id RowID, r Row) bool {
		count++
		return count < 3 // early stop
	})
	if count != 3 {
		t.Errorf("early-stop scan visited %d", count)
	}
	ids, rows := tbl.ScanRows()
	if len(ids) != 5 || len(rows) != 5 {
		t.Errorf("ScanRows = %d/%d", len(ids), len(rows))
	}
}

func TestTablesListing(t *testing.T) {
	db := openVolatile(t)
	db.CreateTable(mustSchema(t, "b", []Column{{Name: "x", Kind: val.KindInt}}))
	db.CreateTable(mustSchema(t, "a", []Column{{Name: "x", Kind: val.KindInt}}))
	names := db.Tables()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Tables() = %v", names)
	}
	if err := db.CreateTable(mustSchema(t, "a", []Column{{Name: "x", Kind: val.KindInt}})); err == nil {
		t.Error("duplicate table accepted")
	}
}

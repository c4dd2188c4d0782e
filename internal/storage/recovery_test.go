package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eventdb/internal/val"
)

func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(tradesSchema(t))
	var id2 RowID
	for i := 1; i <= 20; i++ {
		sym := "A"
		if i%3 == 0 {
			sym = "B"
		}
		rid, err := db.Insert("trades", vmap("id", i, "sym", sym, "price", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			id2 = rid
		}
	}
	db.UpdateRow("trades", id2, vmap("price", 99.0))
	db.DeleteRow("trades", RowID(id2+1)) // row for i=3
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must come back.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, ok := db2.Table("trades")
	if !ok {
		t.Fatal("table missing after recovery")
	}
	if tbl.Len() != 19 {
		t.Errorf("rows after recovery = %d, want 19", tbl.Len())
	}
	row, _, ok := tbl.GetByPK(val.Int(2))
	if !ok {
		t.Fatal("row 2 missing after recovery")
	}
	if p, _ := row[2].AsFloat(); p != 99.0 {
		t.Errorf("updated price lost: %v", p)
	}
	if _, _, ok := tbl.GetByPK(val.Int(3)); ok {
		t.Error("deleted row resurrected")
	}
	// New inserts continue with non-conflicting row IDs.
	rid, err := db2.Insert("trades", vmap("id", 100, "sym", "C", "price", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(rid); !ok {
		t.Error("post-recovery insert lost")
	}
}

// TestTouchedTwiceRecordRefusesOpen: a directory whose log holds a
// commit that deletes one row twice — what a transaction could commit
// before prepare refused a second touch — does not open: replay
// returns an error that names the record's LSN and table instead of
// panicking on the missing row, and applies nothing of the record after
// the change it refused. A follower applying the record gets the same
// error.
func TestTouchedTwiceRecordRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(tradesSchema(t))
	id, err := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("trades")
	old, _ := tbl.Get(id)
	twice := []Change{{Table: "trades", Kind: Delete, ID: id, Old: old}, {Table: "trades", Kind: Delete, ID: id, Old: old}}
	lsn, err := db.log.Append(recCommit, encodeCommit(nil, db.Seq()+1, twice))
	if err != nil {
		t.Fatal(err)
	}
	names := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), fmt.Sprintf("lsn=%d", lsn)) && strings.Contains(err.Error(), `table "trades"`)
	}

	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := db.WAL().Replay(0, follower.ApplyReplicated); !names(err) {
		t.Fatalf("a follower applying the double delete: %v, want an error naming lsn=%d and the table", err, lsn)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err = Open(Options{Dir: dir}); !names(err) {
		t.Fatalf("Open of a log holding a double delete: %v, want an error naming lsn=%d and the table", err, lsn)
	}
}

func TestRecoveryPreservesSeq(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	db.CreateTable(tradesSchema(t))
	for i := 1; i <= 5; i++ {
		db.Insert("trades", vmap("id", i, "sym", "A", "price", 1.0))
	}
	if db.Seq() != 5 {
		t.Fatalf("seq = %d", db.Seq())
	}
	db.Close()
	db2, _ := Open(Options{Dir: dir})
	defer db2.Close()
	if db2.Seq() != 5 {
		t.Errorf("recovered seq = %d, want 5", db2.Seq())
	}
}

func TestVolatileHasNoWAL(t *testing.T) {
	db := openVolatile(t)
	if db.Durable() || db.WAL() != nil {
		t.Error("volatile DB claims durability")
	}
	if err := db.Sync(); err != nil {
		t.Errorf("volatile Sync should be a no-op: %v", err)
	}
}

// TestStorageAgainstModelQuick drives a random operation sequence
// against both the engine and a plain map model, then checks they agree;
// with a durable engine it also reopens and compares again.
func TestStorageAgainstModelQuick(t *testing.T) {
	type modelRow struct {
		sym   string
		price float64
	}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		schema, _ := NewSchema("m", []Column{
			{Name: "k", Kind: val.KindInt, NotNull: true},
			{Name: "sym", Kind: val.KindString},
			{Name: "price", Kind: val.KindFloat},
		}, "k")
		db.CreateTable(schema)
		model := map[int64]modelRow{}
		rowIDs := map[int64]RowID{}
		for op := 0; op < 200; op++ {
			k := int64(rng.Intn(30))
			switch rng.Intn(3) {
			case 0: // insert
				mr := modelRow{sym: string(rune('A' + rng.Intn(4))), price: float64(rng.Intn(100))}
				rid, err := db.Insert("m", map[string]val.Value{
					"k": val.Int(k), "sym": val.String(mr.sym), "price": val.Float(mr.price),
				})
				if _, exists := model[k]; exists {
					if err == nil {
						return false // engine accepted duplicate PK
					}
				} else {
					if err != nil {
						return false
					}
					model[k] = mr
					rowIDs[k] = rid
				}
			case 1: // update
				if _, exists := model[k]; !exists {
					continue
				}
				p := float64(rng.Intn(100))
				if err := db.UpdateRow("m", rowIDs[k], map[string]val.Value{"price": val.Float(p)}); err != nil {
					return false
				}
				mr := model[k]
				mr.price = p
				model[k] = mr
			case 2: // delete
				if _, exists := model[k]; !exists {
					continue
				}
				if err := db.DeleteRow("m", rowIDs[k]); err != nil {
					return false
				}
				delete(model, k)
				delete(rowIDs, k)
			}
		}
		check := func(d *DB) bool {
			tbl, _ := d.Table("m")
			if tbl.Len() != len(model) {
				return false
			}
			for k, mr := range model {
				row, _, ok := tbl.GetByPK(val.Int(k))
				if !ok {
					return false
				}
				s, _ := row[1].AsString()
				p, _ := row[2].AsFloat()
				if s != mr.sym || p != mr.price {
					return false
				}
			}
			return true
		}
		if !check(db) {
			return false
		}
		db.Close()
		db2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer db2.Close()
		return check(db2)
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	s := mustSchema(t, "t", []Column{
		{Name: "a", Kind: val.KindInt, NotNull: true, Default: val.Int(7)},
		{Name: "b", Kind: val.KindString},
	}, "a")
	got, err := decodeSchema(encodeSchema(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "t" || len(got.Columns) != 2 || got.Columns[0].NotNull != true {
		t.Errorf("schema round-trip: %+v", got)
	}
	if !val.Equal(got.Columns[0].Default, val.Int(7)) {
		t.Errorf("default round-trip: %v", got.Columns[0].Default)
	}
	if len(got.PrimaryKey) != 1 || got.PrimaryKey[0] != "a" {
		t.Errorf("pk round-trip: %v", got.PrimaryKey)
	}

	changes := []Change{
		{Table: "t", Kind: Insert, ID: 5, New: Row{val.Int(1), val.String("x")}},
		{Table: "t", Kind: Update, ID: 5, Old: Row{val.Int(1), val.String("x")}, New: Row{val.Int(1), val.String("y")}},
		{Table: "t", Kind: Delete, ID: 5, Old: Row{val.Int(1), val.String("y")}},
	}
	seq, dec, err := decodeCommit(encodeCommit(nil, 42, changes))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(dec) != 3 {
		t.Fatalf("commit round-trip: seq=%d n=%d", seq, len(dec))
	}
	if dec[0].Old != nil || dec[0].New == nil {
		t.Error("insert rows wrong")
	}
	if dec[2].New != nil || dec[2].Old == nil {
		t.Error("delete rows wrong")
	}
	if !val.Equal(dec[1].New[1], val.String("y")) {
		t.Error("update new row wrong")
	}
}

func TestDecodeErrorsOnGarbage(t *testing.T) {
	if _, _, err := decodeCommit([]byte{0xFF}); err == nil {
		t.Error("garbage commit accepted")
	}
	if _, err := decodeSchema([]byte{0x02, 'a'}); err == nil {
		t.Error("garbage schema accepted")
	}
}

package storage

import (
	"errors"
	"testing"

	"eventdb/internal/val"
	"eventdb/internal/vfs"
)

func degradedTestSchema(t *testing.T) *Schema {
	return mustSchema(t, "items", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "name", Kind: val.KindString, NotNull: true},
	}, "id")
}

// TestDegradedFailStopAndRecover drives the full fail-stop lifecycle:
// an fsync failure mid-commit degrades the database, reads keep
// working, mutations are refused with ErrDegraded, Recover fails while
// the device is still broken, succeeds once healed, and no
// acknowledged write is lost across a restart.
func TestDegradedFailStopAndRecover(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaulty(nil)
	db, err := Open(Options{Dir: dir, SyncEvery: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.CreateTable(degradedTestSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRow("items", Row{val.Int(1), val.String("acked")}); err != nil {
		t.Fatal(err)
	}
	if db.LastApplied() == 0 {
		t.Fatal("LastApplied = 0 after durable commit")
	}

	// Break the device mid-commit: the insert must fail, nothing may be
	// applied, and the database must fail-stop.
	boom := errors.New("injected EIO")
	fsys.FailSyncsAfter(0, boom)
	if _, err := db.InsertRow("items", Row{val.Int(2), val.String("doomed")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert during fault: %v, want ErrDegraded", err)
	}
	if deg, cause := db.Degraded(); !deg || cause == "" {
		t.Fatalf("Degraded() = %v, %q; want true with cause", deg, cause)
	}
	// Mutations stay refused; DDL too.
	if _, err := db.InsertRow("items", Row{val.Int(3), val.String("also-refused")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second insert: %v, want ErrDegraded", err)
	}
	if err := db.CreateTable(mustSchema(t, "other", []Column{{Name: "id", Kind: val.KindInt}})); !errors.Is(err, ErrDegraded) {
		t.Fatalf("create table: %v, want ErrDegraded", err)
	}
	// Reads keep working.
	tbl, ok := db.Table("items")
	if !ok {
		t.Fatal("table lost while degraded")
	}
	if n := countRows(tbl); n != 1 {
		t.Fatalf("rows while degraded = %d, want 1 (failed insert must not apply)", n)
	}

	// Recovery with the device still broken must fail and stay degraded.
	if err := db.Recover(); err == nil {
		t.Fatal("Recover with broken device unexpectedly succeeded")
	}
	if deg, _ := db.Degraded(); !deg {
		t.Fatal("database left degraded=false after failed Recover")
	}

	fsys.Heal()
	if err := db.Recover(); err != nil {
		t.Fatalf("Recover after heal: %v", err)
	}
	if deg, _ := db.Degraded(); deg {
		t.Fatal("still degraded after successful Recover")
	}
	if _, err := db.InsertRow("items", Row{val.Int(4), val.String("resumed")}); err != nil {
		t.Fatalf("insert after recover: %v", err)
	}

	// Restart from disk: the acked rows survive, the doomed one doesn't.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl2, ok := db2.Table("items")
	if !ok {
		t.Fatal("table missing after reopen")
	}
	seen := map[string]bool{}
	tbl2.Scan(func(_ RowID, r Row) bool {
		s, _ := r[1].AsString()
		seen[s] = true
		return true
	})
	if len(seen) != 2 || !seen["acked"] || !seen["resumed"] || seen["doomed"] {
		t.Fatalf("rows after reopen = %v", seen)
	}
}

func countRows(tbl *Table) int {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	return len(tbl.rows)
}

// TestRecoverOnHealthyDBIsNoop guards the operator path: RECOVER on a
// node that never degraded must succeed without touching the log.
func TestRecoverOnHealthyDBIsNoop(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(degradedTestSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRow("items", Row{val.Int(1), val.String("a")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatalf("Recover on healthy db: %v", err)
	}
	if _, err := db.InsertRow("items", Row{val.Int(2), val.String("b")}); err != nil {
		t.Fatalf("insert after noop recover: %v", err)
	}
}

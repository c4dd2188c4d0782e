package journal

import (
	"fmt"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// minedInserts drains MineChanges with a single-table insert-only
// filter into a comparable trace: one line per change plus the
// returned next-LSN.
func minedInserts(t *testing.T, m *Miner, table string, fromLSN uint64) []string {
	t.Helper()
	var out []string
	next, err := m.MineChanges(fromLSN, Filter{Tables: []string{table}, Ops: []storage.ChangeKind{storage.Insert}},
		func(lsn uint64, c *storage.Change) error {
			out = append(out, fmt.Sprintf("lsn=%d table=%s id=%d new=%v", lsn, c.Table, c.ID, c.New))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fmt.Sprintf("next=%d", next))
}

// TestMineUnchangedBySealing: MineChanges reads the WAL and nothing
// else, so a columnar store sealing the table's history into segments
// changes nothing it returns. The same database is mined before any
// columnar manager exists and again after its history is sealed; the
// traces must be identical, from LSN zero and from a mid-stream resume
// point.
func TestMineUnchangedBySealing(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, _ := storage.NewSchema("acct", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "balance", Kind: val.KindFloat},
	}, "id")
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}

	// History with texture: single inserts, one multi-insert commit,
	// and interleaved updates/deletes that the insert filter must skip
	// on both paths.
	var ids []storage.RowID
	for i := 0; i < 40; i++ {
		id, err := db.Insert("acct", map[string]val.Value{"id": val.Int(int64(i)), "balance": val.Float(float64(i) * 2)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%7 == 3 {
			db.UpdateRow("acct", ids[i/2], map[string]val.Value{"balance": val.Float(-1)})
		}
		if i%11 == 10 {
			db.DeleteRow("acct", ids[i-5])
		}
	}
	txn := db.Begin()
	for i := 100; i < 130; i++ {
		if err := txn.Insert("acct", map[string]val.Value{"id": val.Int(int64(i)), "balance": val.Float(0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	miner := NewMiner(db)
	baselineAll := minedInserts(t, miner, "acct", 0)
	resume := uint64(25)
	baselineMid := minedInserts(t, miner, "acct", resume)

	cm, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	if _, err := cm.Compact(""); err != nil {
		t.Fatal(err)
	}
	var sealed int
	for _, s := range cm.Stats() {
		sealed += s.SealedRows
	}
	if sealed == 0 {
		t.Fatal("no rows sealed; mining is not being tried beside segments")
	}
	// An insert after sealing, beside the sealed history.
	if _, err := db.Insert("acct", map[string]val.Value{"id": val.Int(999), "balance": val.Float(9)}); err != nil {
		t.Fatal(err)
	}
	tailAll := minedInserts(t, NewMiner(db), "acct", 0)
	tailMid := minedInserts(t, NewMiner(db), "acct", resume)

	// The baselines predate the last insert: compare prefixes, then the
	// two mines' final cursors.
	checkPrefix := func(label string, baseline, got []string) {
		t.Helper()
		if len(got) < len(baseline) {
			t.Fatalf("%s: got %d entries, want at least %d", label, len(got), len(baseline))
		}
		for i := range baseline[:len(baseline)-1] { // last entry is the cursor
			if got[i] != baseline[i] {
				t.Fatalf("%s: entry %d:\n  sealed: %s\n  before: %s", label, i, got[i], baseline[i])
			}
		}
	}
	checkPrefix("from-zero", baselineAll, tailAll)
	checkPrefix("mid-resume", baselineMid, tailMid)
	if tailAll[len(tailAll)-1] != tailMid[len(tailMid)-1] {
		t.Fatalf("cursors diverge: %s vs %s", tailAll[len(tailAll)-1], tailMid[len(tailMid)-1])
	}
}

// TestMineResumeInsideSealedRange resumes mining from an LSN that lands
// strictly inside a sealed segment's range: sealing changes nothing
// mined, and only inserts at or after that LSN are emitted.
func TestMineResumeInsideSealedRange(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, _ := storage.NewSchema("acct", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
	}, "id")
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := db.Insert("acct", map[string]val.Value{"id": val.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	baseline := minedInserts(t, NewMiner(db), "acct", 40)

	cm, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	if _, err := cm.Compact(""); err != nil {
		t.Fatal(err)
	}
	got := minedInserts(t, NewMiner(db), "acct", 40)
	if len(got) != len(baseline) {
		t.Fatalf("got %d entries, want %d", len(got), len(baseline))
	}
	for i := range baseline {
		if got[i] != baseline[i] {
			t.Fatalf("entry %d:\n  sealed: %s\n  before: %s", i, got[i], baseline[i])
		}
	}
}

package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestMineReleasedSegments is the differential for history that has
// left memory: mining one table's inserts with the columnar store
// attached — sealed spans from memory, from segment files or from the
// WAL, then the WAL hand-off — must give exactly what mining the WAL
// alone gives on the same directory, from LSN 0 and from a mid LSN:
// after the dead segments were released, after a restart of the store,
// with a segment file deleted and another corrupted under a running
// store, and after a restart on those damaged files.
func TestMineReleasedSegments(t *testing.T) {
	const rows, window = 1200, 100
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, _ := storage.NewSchema("q_jobs", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "state", Kind: val.KindString},
		{Name: "body", Kind: val.KindBytes},
	}, "id")
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	other, _ := storage.NewSchema("other", []storage.Column{{Name: "n", Kind: val.KindInt}})
	if err := db.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	attach := func() *columnar.Manager {
		t.Helper()
		// The sealer idle: the test seals, so the segments are the same
		// on every run.
		cm, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour, Dir: segDir})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	stats := func(cm *columnar.Manager) columnar.TableStats {
		t.Helper()
		for _, s := range cm.Stats() {
			if s.Table == "q_jobs" {
				return s
			}
		}
		t.Fatal("no stats for q_jobs")
		return columnar.TableStats{}
	}

	// A queue's life — stage, claim, ack — sealed every 64 rows, with
	// commits to another table in between, one multi-row commit, and one
	// row in 150 never claimed (so some rows outlive their segment, hot
	// again once the table gives it back).
	cm := attach()
	ids := make([]storage.RowID, 0, rows)
	for i := 0; len(ids) < rows; i++ {
		if i == 500 {
			txn := db.Begin()
			for k := 0; k < 90; k++ {
				if err := txn.Insert("q_jobs", map[string]val.Value{"id": val.Int(int64(10_000 + k)), "state": val.String("ready")}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("q_jobs")
			for k := 0; k < 90; k++ {
				_, id, _ := tbl.GetByPK(val.Int(int64(10_000 + k)))
				ids = append(ids, id)
			}
		}
		id, err := db.Insert("q_jobs", map[string]val.Value{"id": val.Int(int64(i)), "state": val.String("ready"), "body": val.Bytes([]byte{byte(i), byte(i >> 8)})})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%3 == 0 {
			if _, err := db.Insert("other", map[string]val.Value{"n": val.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		n := len(ids) - 1
		if n%150 != 0 {
			if err := db.UpdateRow("q_jobs", id, map[string]val.Value{"state": val.String("claimed")}); err != nil {
				t.Fatal(err)
			}
		}
		if old := n - window; old >= 0 && old%150 != 0 {
			if err := db.DeleteRow("q_jobs", ids[old]); err != nil {
				t.Fatal(err)
			}
		}
		if len(ids)%64 == 0 || len(ids) == rows {
			if _, err := cm.Compact("q_jobs"); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := stats(cm)
	if s.SealedRows != rows || s.ResidentSegments*2 > s.Segments || s.ReleasedRows < rows/2 {
		t.Fatalf("the churn should have released most of the history and kept some: %+v", s)
	}
	// A row-store tail after the last seal: the WAL hand-off.
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("q_jobs", map[string]val.Value{"id": val.Int(int64(20_000 + i))}); err != nil {
			t.Fatal(err)
		}
	}

	miner := NewMiner(db)
	mid := db.WAL().NextLSN() / 2
	mine := func() [2][]string {
		return [2][]string{minedInserts(t, miner, "q_jobs", 0), minedInserts(t, miner, "q_jobs", mid)}
	}
	same := func(label string, got, want [2][]string) {
		t.Helper()
		for k, from := range []string{"from 0", "from mid"} {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("%s, %s: mined %d entries, the WAL alone gives %d", label, from, len(got[k]), len(want[k]))
			}
		}
	}

	released := mine()
	cm.Close()
	want := mine() // no store attached: the WAL alone
	if len(want[0]) != rows+10+1 || len(want[1]) >= len(want[0]) || len(want[1]) < 100 {
		t.Fatalf("oracle mined %d and %d entries", len(want[0]), len(want[1]))
	}
	same("after release", released, want)

	cm = attach()
	if err := cm.Err(); err != nil {
		t.Fatal(err)
	}
	if s := stats(cm); s.ResidentSegments*2 > s.Segments || s.ReleasedRows < rows/2 {
		t.Fatalf("a restart must not bring dead history back into memory: %+v", s)
	}
	same("after restart", mine(), want)

	// Damage two files of released history under the running store.
	files, _ := filepath.Glob(filepath.Join(segDir, "*.seg"))
	if len(files) < 8 {
		t.Fatalf("%d segment files", len(files))
	}
	if err := os.Remove(files[2]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(files[5])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[5], data, 0o644); err != nil {
		t.Fatal(err)
	}
	same("one file deleted, one corrupt", mine(), want)
	if err := cm.Err(); err != nil {
		t.Errorf("mining read a segment file: %v", err)
	}
	cm.Close()

	cm = attach()
	defer cm.Close()
	same("restart on damaged files", mine(), want)
	if _, err := cm.Compact("q_jobs"); err != nil {
		t.Fatal(err)
	}
	same("restart on damaged files, resealed", mine(), want)
}

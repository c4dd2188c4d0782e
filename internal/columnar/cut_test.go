package columnar

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestSegmentLayoutIsTheLog: where a table's history is cut is a
// function of its row ids, not of when the sealer runs. One seeded
// stream of commits goes into a durable database three times — with the
// sealer cutting as the rows arrive, with it cutting only once the
// stream has ended, and with no sealer before one final Compact — and
// the three runs leave the same segment files, byte for byte. With
// deletes mixed in, what a file holds depends on what was live when it
// was cut, but the ranges the files hold (their names) still do not.
func TestSegmentLayoutIsTheLog(t *testing.T) {
	const sealRows, rows = 64, 1500
	run := func(t *testing.T, mode string, deletes bool) (files map[string][]byte, segments int) {
		dir := t.TempDir()
		db, err := storage.Open(storage.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.CreateTable(eventsSchema(t)); err != nil {
			t.Fatal(err)
		}
		cfg := Config{SealRows: sealRows, SealInterval: time.Hour, Dir: filepath.Join(dir, "segments")}
		var m *Manager
		switch mode {
		case "eager":
			cfg.SealInterval = time.Millisecond
			m = attach(t, db, cfg)
		case "none":
			m = attach(t, db, cfg)
		}
		rng := rand.New(rand.NewSource(61))
		gone := map[storage.RowID]bool{}
		for i := 0; i < rows; {
			txn := db.Begin()
			if deletes && i > 0 && rng.Intn(3) == 0 {
				if id := storage.RowID(1 + rng.Intn(i)); !gone[id] {
					gone[id] = true
					if err := txn.Delete("events", id); err != nil {
						t.Fatal(err)
					}
				}
			}
			for n := 1 + rng.Intn(20); n > 0 && i < rows; n-- {
				if err := txn.Insert("events", randEvent(rng, i)); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if mode == "late" {
			cfg.SealInterval = time.Millisecond
			m = attach(t, db, cfg)
			for deadline := time.Now().Add(10 * time.Second); m.Stats()[0].PendingRows >= sealRows; {
				if time.Now().After(deadline) {
					t.Fatal("background sealer never caught up")
				}
				time.Sleep(time.Millisecond)
			}
		}
		stats, err := m.Compact("events")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		m.Close()
		files = map[string][]byte{}
		entries, err := os.ReadDir(cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(cfg.Dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files, stats[0].Segments
	}
	for _, deletes := range []bool{false, true} {
		t.Run(fmt.Sprintf("deletes=%v", deletes), func(t *testing.T) {
			want, wantSegs := run(t, "none", deletes)
			if wantSegs < rows/sealRows || len(want) != wantSegs {
				t.Fatalf("one Compact: %d files for %d cuts, want one per range of %d ids", len(want), wantSegs, sealRows)
			}
			for _, mode := range []string{"eager", "late"} {
				got, segs := run(t, mode, deletes)
				names := func(files map[string][]byte) []string {
					var out []string
					for name := range files {
						out = append(out, name)
					}
					slices.Sort(out)
					return out
				}
				if !slices.Equal(names(got), names(want)) || segs != wantSegs {
					t.Fatalf("sealer %s: %d cuts in files\n%q\nwant %d in\n%q", mode, segs, names(got), wantSegs, names(want))
				}
				for name, data := range got {
					if !deletes && string(data) != string(want[name]) {
						t.Fatalf("sealer %s: file %s differs from the one Compact writes", mode, name)
					}
				}
			}
		})
	}
}

// TestSealedStringsPinNoImage: a segment keeps no part of the row
// images it was built from, which its table lets go of as it takes the
// segment's rows: a string enters its column's dictionary as a copy.
// 20 k rows, each with a unique 100-byte string and eight ints that an
// image spells in ten bytes each and a segment in none, are compacted;
// the live heap then holds what the table reports for its segments and
// their runs (COMPACT's bytes), not the images.
func TestSealedStringsPinNoImage(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates heap sizes")
	}
	const rows, margin = 20_000, 24 // margin: B a row the stats leave out
	cols := []storage.Column{{Name: "k", Kind: val.KindInt}, {Name: "s", Kind: val.KindString}}
	for c := 0; c < 8; c++ {
		cols = append(cols, storage.Column{Name: fmt.Sprintf("n%d", c), Kind: val.KindInt})
	}
	schema, err := storage.NewSchema("wide", cols, "k")
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m := idleManager(t, db)
	for start := 0; start < rows; start += 1000 {
		txn := db.Begin()
		for k := start; k < start+1000; k++ {
			row := storage.Row{val.Int(int64(k)), val.String(fmt.Sprintf("%0100d", k))}
			for c := 0; c < 8; c++ {
				row = append(row, val.Int(1<<62))
			}
			txn.InsertRow("wide", row)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Compact("wide")
	if err != nil {
		t.Fatal(err)
	}
	if s := stats[0]; s.ColdRows != rows {
		t.Fatalf("%d rows in their segment alone, want all %d: %+v", s.ColdRows, rows, s)
	}
	live := heap() - before
	runtime.KeepAlive(db)
	perRow, want := float64(live)/rows, float64(stats[0].MemBytes)/rows+margin
	if perRow > want {
		t.Errorf("live heap %.1f B a row, want at most the segments' %.1f plus %d", perRow, want-margin, margin)
	}
	t.Logf("live heap %.1f B a row; segments and runs %.1f", perRow, want-margin)
}

// TestMissingFileIsCutAgain: a restart that finds one range's file
// missing keeps the files after it, and the sealer cuts that range
// again, to the same file: the hole's ids are pending until it does.
func TestMissingFileIsCutAgain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SealRows: 64, SealInterval: time.Hour, Dir: filepath.Join(dir, "segments")}
	open := func() (*storage.DB, *Manager) {
		db, err := storage.Open(storage.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Table("events"); !ok {
			if err := db.CreateTable(eventsSchema(t)); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Attach(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db, m
	}
	read := func() map[string]string {
		entries, err := os.ReadDir(cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(cfg.Dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	db, m := open()
	fillEvents(t, db, 300, 71)
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	db.Close()
	want := read()
	lost := segFileName("events", 65)
	if len(want) != 5 || want[lost] == "" {
		t.Fatalf("files %d, want five with %s among them", len(want), lost)
	}
	if err := os.Remove(filepath.Join(cfg.Dir, lost)); err != nil {
		t.Fatal(err)
	}

	db, m = open()
	defer db.Close()
	defer m.Close()
	if s := m.Stats()[0]; s.Segments != 4 || s.ResidentSegments != 4 || s.SealedRows != 236 || s.PendingRows != 64 {
		t.Fatalf("after the restart: %+v, want four ranges reloaded and the lost one's 64 ids pending", s)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats()[0]; s.Segments != 5 || s.ResidentSegments != 5 || s.ColdRows != 300 || s.PendingRows != 0 {
		t.Fatalf("after Compact: %+v, want the lost range cut again", s)
	}
	got := read()
	if len(got) != len(want) {
		t.Fatalf("%d files, want %d", len(got), len(want))
	}
	for name, data := range want {
		if got[name] != data {
			t.Errorf("file %s differs from the one cut before the restart", name)
		}
	}
}

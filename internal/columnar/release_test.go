package columnar

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// churn drives a queue's life through the events table: every row is
// inserted, rewritten at once (the claim) and deleted window inserts
// later (the ack), except that one row in keepEvery (0: none) is left
// alone for ever, like a message nobody consumes. It returns how many
// rows it left alone and how many it rewrote and has not deleted.
func churn(t *testing.T, db *storage.DB, rows, window, keepEvery int, seed int64) (kept, inFlight int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]storage.RowID, rows)
	for i := 0; i < rows; i++ {
		id, err := db.Insert("events", randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if i >= window && ids[i-window] != 0 {
			if err := db.DeleteRow("events", ids[i-window]); err != nil {
				t.Fatal(err)
			}
			inFlight--
		}
		if keepEvery > 0 && i%keepEvery == 0 {
			ids[i] = 0
			kept++
			continue
		}
		if err := db.UpdateRow("events", id, map[string]val.Value{"qty": val.Int(-1)}); err != nil {
			t.Fatal(err)
		}
		inFlight++
	}
	return kept, inFlight
}

// TestDeadHistoryBounded is the soak: memory holds what a scan can
// return. After 64 seal thresholds' worth of insert → update → delete
// with 512 rows in flight, the resident segments, their bytes and the
// modified set are those of the in-flight window — not of the rows ever
// processed — with and without a segment directory; and rows that are
// never claimed pin their own bytes, not their dead neighbours'.
func TestDeadHistoryBounded(t *testing.T) {
	const sealRows, rows, window = 64, 64 * 64, 512
	// What one resident row costs at most: measured on a segment of
	// live rows.
	perRow := func() int {
		db := openVolatile(t)
		fillEvents(t, db, sealRows, 1)
		m := idleManager(t, db)
		stats, err := m.Compact("events")
		if err != nil {
			t.Fatal(err)
		}
		return stats[0].MemBytes/sealRows + 1
	}()

	for _, tc := range []struct {
		name      string
		durable   bool
		keepEvery int
	}{
		{"volatile", false, 0},
		{"durable", true, 0},
		{"volatile, 1 in 100 never claimed", false, 100},
		{"durable, 1 in 100 never claimed", true, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts storage.Options
			cfg := Config{SealRows: sealRows, SealInterval: time.Millisecond}
			if tc.durable {
				opts.Dir = t.TempDir()
				cfg.Dir = filepath.Join(opts.Dir, "segments")
			}
			db, err := storage.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateTable(eventsSchema(t)); err != nil {
				t.Fatal(err)
			}
			m := attach(t, db, cfg)
			kept, inFlight := churn(t, db, rows, window, tc.keepEvery, 31)
			stats, err := m.Compact("events")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			s := stats[0]
			if s.SealedRows != rows || s.PendingRows != 0 {
				t.Fatalf("sealed history must still count every row: %+v", s)
			}
			// The rows in flight were rewritten, so their current version
			// is in the row store: the only live copies are those of the
			// rows never claimed, and a resident segment keeps fewer than
			// sparseDiv rows per live one.
			maxRows := sparseDiv * kept
			if got := s.SealedRows - s.ReleasedRows; got > maxRows {
				t.Errorf("%d sealed rows resident for %d live ones, want at most %d: %+v", got, kept, maxRows, s)
			}
			if s.MemBytes > maxRows*perRow {
				t.Errorf("%d resident bytes, want at most %d rows x %d: %+v", s.MemBytes, maxRows, perRow, s)
			}
			if s.ResidentSegments > kept || s.Segments < rows/(2*sealRows) {
				t.Errorf("%d of %d segments resident, want at most one per live row (%d)", s.ResidentSegments, s.Segments, kept)
			}
			st := m.Table("events")
			st.mu.RLock()
			modified, spans := len(st.modified), len(st.released)
			st.mu.RUnlock()
			if modified != inFlight {
				t.Errorf("modified holds %d ids, want the %d rows in flight", modified, inFlight)
			}
			if tc.durable != (spans > 0) {
				t.Errorf("%d released spans kept (durable=%v): a span is kept exactly where a WAL can serve it", spans, tc.durable)
			}
			// Every live row is still served: the never-claimed ones from
			// their segments.
			if live := len(segRows(t, st)); live != kept {
				t.Errorf("segments serve %d live rows, want %d", live, kept)
			}
			if tc.durable {
				files, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.seg"))
				if len(files) != s.Segments {
					t.Errorf("%d segment files for %d segments: a released segment keeps its file", len(files), s.Segments)
				}
			}
		})
	}
}

// TestSegmentAheadOfWAL: no segment file is ever ahead of the WAL that
// makes it recoverable. A seal flushes the log through the segment's
// last LSN before the file appears, so a copy of the directory taken
// right after holds every row the file does; and a file that is ahead
// anyway (here: planted) is discarded at load, not trusted — trusting it
// would make the history drop the next inserts, which reuse its LSNs
// and row ids, as replays.
func TestSegmentAheadOfWAL(t *testing.T) {
	var copyDir func(from, to string)
	copyDir = func(from, to string) {
		t.Helper()
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(to, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				copyDir(filepath.Join(from, e.Name()), filepath.Join(to, e.Name()))
				continue
			}
			data, err := os.ReadFile(filepath.Join(from, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func(dir string) (*storage.DB, *Manager) {
		t.Helper()
		db, err := storage.Open(storage.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if _, ok := db.Table("events"); !ok {
			if err := db.CreateTable(eventsSchema(t)); err != nil {
				t.Fatal(err)
			}
		}
		return db, attach(t, db, Config{SealRows: 1 << 30, SealInterval: time.Hour, Dir: filepath.Join(dir, "segments")})
	}

	// A library user never calls Flush: 100 commits sit in the WAL's
	// buffer when the seal runs.
	dir := t.TempDir()
	db, m := open(dir)
	fillEvents(t, db, 100, 41)
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	taken := filepath.Join(t.TempDir(), "copy")
	copyDir(dir, taken)
	db2, m2 := open(taken)
	tbl, _ := db2.Table("events")
	if err := m2.Err(); err != nil || tbl.Len() != 100 {
		t.Fatalf("copy taken after the seal: table has %d rows, want the file's 100 (err %v)", tbl.Len(), err)
	}
	if s := m2.Stats()[0]; s.SealedRows != 100 || s.PendingRows != 0 {
		t.Fatalf("copy taken after the seal: %+v", s)
	}

	// The same file beside a WAL that never heard of its rows.
	ahead := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if len(files) != 1 {
		t.Fatalf("segment files: %v", files)
	}
	if err := os.MkdirAll(filepath.Join(ahead, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	planted := filepath.Join(ahead, "segments", filepath.Base(files[0]))
	if err := os.WriteFile(planted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db3, m3 := open(ahead)
	if m3.Err() == nil {
		t.Error("a file ahead of the WAL should surface via Err()")
	}
	if _, err := os.Stat(planted); !os.IsNotExist(err) {
		t.Error("a file ahead of the WAL should be deleted")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		if _, err := db3.Insert("events", randEvent(rng, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m3.Compact("events"); err != nil {
		t.Fatal(err)
	}
	got := segRows(t, m3.Table("events"))
	tbl3, _ := db3.Table("events")
	ids, stored := tbl3.ScanRows()
	if len(got) != 50 || len(ids) != 50 {
		t.Fatalf("history serves %d rows, table holds %d, want 50 and 50", len(got), len(ids))
	}
	for k, id := range ids {
		if !rowsEqual(got[id], stored[k]) {
			t.Fatalf("row %d: history %v, table %v", id, got[id], stored[k])
		}
	}
}

// TestAllocsObserve guards the commit hook: a commit that names one
// table — every ACK of a durable subscription is one — is folded in
// without an allocation of the hook's own. (An insert grows the tail's
// vectors, which is the tail's to pay, so the commits here rewrite and
// delete.)
func TestAllocsObserve(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := openVolatile(t)
	m := idleManager(t, db)
	fillEvents(t, db, 600, 51)
	m.seal(m.Table("events"), 200)
	if n := len(m.Table("events").segs); n != 3 {
		t.Fatalf("want 3 resident segments, have %d", n)
	}
	tbl, _ := db.Table("events")
	ids, _ := tbl.ScanRows()
	id := ids[0]
	for _, other := range ids {
		id = max(id, other) // a row of the last segment
	}
	claim := &storage.CommitInfo{Seq: db.Seq(), Changes: []storage.Change{{Table: "events", Kind: storage.Update, ID: id}}}
	ack := &storage.CommitInfo{Seq: db.Seq(), Changes: []storage.Change{{Table: "events", Kind: storage.Delete, ID: id}}}
	if a := testing.AllocsPerRun(200, func() {
		m.observe(claim)
		m.observe(ack)
	}); a != 0 {
		t.Errorf("observing a one-table commit allocates %v per claim+ack, want 0", a)
	}
}

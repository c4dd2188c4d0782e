package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eventdb/internal/wal"
)

// follow runs db.Follow from `from` on its own goroutine, sending each
// pass's LSNs to the returned channel; stop ends it and returns its error.
func follow(t *testing.T, db *DB, from uint64) (<-chan []uint64, func() error) {
	t.Helper()
	passes := make(chan []uint64, 1024)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Follow(from, quit, func(recs []wal.Record) error {
			lsns := make([]uint64, len(recs))
			for i, r := range recs {
				lsns[i] = r.LSN
			}
			passes <- lsns
			return nil
		})
	}()
	return passes, func() error {
		close(quit)
		return <-done
	}
}

// TestFollowDeliversBacklogAndLiveCommits follows a log whose backlog
// overflows one pass, then picks up commits as they land: every record
// once, in LSN order, and stopping returns nil.
func TestFollowDeliversBacklogAndLiveCommits(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 8<<10)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := db.Insert("trades", vmap("id", i, "sym", "A", "price", 1.0, "note", big)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 300) // ~2.4 MB: more than one pass holds
	passes, stop := follow(t, db, 1)
	var got []uint64
	npass := 0
	collect := func(want uint64) {
		t.Helper()
		for uint64(len(got)) < want {
			select {
			case p := <-passes:
				got = append(got, p...)
				npass++
			case <-time.After(5 * time.Second):
				t.Fatalf("followed %d records, want %d", len(got), want)
			}
		}
	}
	collect(301)
	if npass < 2 {
		t.Errorf("a 2.4 MB backlog arrived in %d pass(es), want it split", npass)
	}
	insert(300, 303)
	collect(304)
	for i, lsn := range got {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has lsn %d, want %d", i, lsn, i+1)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("stopped Follow returned %v", err)
	}
}

// TestFollowShortRecordInSealedSegment cuts the first of three
// segments mid-record: Follow reports the corruption rather than
// waiting forever for bytes the writer rolled past.
func TestFollowShortRecordInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	var segs []string
	for i := 0; len(segs) < 3; i++ {
		if _, err := db.Insert("trades", vmap("id", i, "sym", "A", "price", 1.0)); err != nil {
			t.Fatal(err)
		}
		segs, _ = filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	defer close(quit)
	done := make(chan error, 1)
	go func() { done <- db.Follow(1, quit, func([]wal.Record) error { return nil }) }()
	var torn *wal.TornTailError
	select {
	case err := <-done:
		if !errors.As(err, &torn) {
			t.Fatalf("Follow over a cut sealed segment = %v, want *wal.TornTailError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow stalled on a cut sealed segment")
	}
}

package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, opts Options) *WAL {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestAppendReplay(t *testing.T) {
	w := openTemp(t, Options{})
	var lsns []uint64
	for i := 0; i < 100; i++ {
		lsn, err := w.Append(1, []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// LSNs strictly increasing from 1.
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d", i, lsn)
		}
	}
	var got []Record
	if err := w.Replay(0, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, r := range got {
		if string(r.Data) != fmt.Sprintf("rec-%d", i) || r.Type != 1 {
			t.Errorf("record %d = %q type %d", i, r.Data, r.Type)
		}
	}
}

func TestReplayFromLSN(t *testing.T) {
	w := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := w.Append(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := w.Replay(6, func(r Record) error {
		got = append(got, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 6 || got[4] != 10 {
		t.Errorf("Replay(6) = %v", got)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsn, err := w2.Append(0, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Errorf("lsn after reopen = %d, want 6", lsn)
	}
	count := 0
	if err := w2.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Errorf("total records = %d, want 6", count)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 64)
	for i := 0; i < 50; i++ {
		if _, err := w.Append(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := w.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Errorf("expected multiple segments, got %d", len(segs))
	}
	count := 0
	if err := w.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("replay across segments = %d, want 50", count)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(0, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash mid-append: append garbage to the segment.
	segs, _ := os.ReadDir(dir)
	path := filepath.Join(dir, segs[0].Name())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE}) // partial record header
	f.Close()

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer w2.Close()
	count := 0
	if err := w2.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("records after torn-tail recovery = %d, want 10", count)
	}
	// New appends continue cleanly.
	lsn, err := w2.Append(0, []byte("next"))
	if err != nil || lsn != 11 {
		t.Errorf("append after recovery: lsn=%d err=%v", lsn, err)
	}
}

func TestCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Append(0, []byte("payload-payload"))
	}
	w.Close()
	segs, _ := os.ReadDir(dir)
	path := filepath.Join(dir, segs[0].Name())
	data, _ := os.ReadFile(path)
	// Flip a byte in the middle of the file (inside some record payload).
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w2.Close()
	// Replay stops at corruption; since it's the last segment it's
	// treated as a torn tail: only the prefix replays.
	count := 0
	if err := w2.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if count >= 10 {
		t.Errorf("corrupt record should stop replay early, got %d", count)
	}
}

func TestCheckpointRemovesOldSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 64)
	var lastLSN uint64
	for i := 0; i < 50; i++ {
		lastLSN, _ = w.Append(0, payload)
	}
	before, _ := w.segments()
	if err := w.Checkpoint(lastLSN); err != nil {
		t.Fatal(err)
	}
	after, _ := w.segments()
	if len(after) >= len(before) {
		t.Errorf("checkpoint removed nothing: %d -> %d segments", len(before), len(after))
	}
	// Records >= some recent LSN still replay.
	count := 0
	if err := w.Replay(lastLSN, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("replay after checkpoint = %d, want 1", count)
	}
}

func TestSyncEvery(t *testing.T) {
	w := openTemp(t, Options{SyncEvery: 1})
	if _, err := w.Append(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// No assertion possible on actual fsync behaviour; this exercises
	// the code path.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with empty dir should fail")
	}
}

func TestClosedWALRejectsAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append(0, []byte("x")); err == nil {
		t.Error("append after close should fail")
	}
	if err := w.Sync(); err == nil {
		t.Error("sync after close should fail")
	}
	// Double close is fine.
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReplayWhileOpenSeesBufferedRecords(t *testing.T) {
	w := openTemp(t, Options{})
	w.Append(0, []byte("a"))
	w.Append(0, []byte("b"))
	count := 0
	if err := w.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("replay while open = %d, want 2 (flush before replay)", count)
	}
}

func TestEmptyPayload(t *testing.T) {
	w := openTemp(t, Options{})
	if _, err := w.Append(7, nil); err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := w.Replay(0, func(r Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if got.Type != 7 || len(got.Data) != 0 {
		t.Errorf("empty payload record = %+v", got)
	}
}

// TestSyncToCoalescesConcurrentAppends drives many concurrent durable
// appenders (SyncEvery=1, so each append demands durability) and
// verifies every record survives replay intact and in order — the
// group-commit path where concurrent fsyncs coalesce must never trade
// away correctness.
func TestSyncToCoalescesConcurrentAppends(t *testing.T) {
	w := openTemp(t, Options{SyncEvery: 1})
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := w.Append(1, []byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var lsns []uint64
	if err := w.Replay(0, func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(lsns), writers*perWriter)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("LSNs not contiguous at %d: %d then %d", i, lsns[i-1], lsns[i])
		}
	}
	// SyncTo at the tail is satisfied (possibly by an already-completed
	// group sync) and idempotent.
	last := w.NextLSN() - 1
	if err := w.SyncTo(last); err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(last); err != nil {
		t.Fatal(err)
	}
}

func TestSyncToOnClosedWAL(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Already-durable positions answer without touching the file; a
	// position beyond them must error rather than claim durability.
	if err := w.SyncTo(lsn); err != nil {
		t.Errorf("SyncTo over synced prefix after close: %v", err)
	}
	if err := w.SyncTo(lsn + 1); err == nil {
		t.Error("SyncTo past the end of a closed WAL should fail")
	}
}

// TestOpenRestartsHeaderlessSegment leaves the newest segment as a
// crash mid-roll does, created but with its header cut short: Open
// starts that segment afresh, and its records replay after a restart.
func TestOpenRestartsHeaderlessSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(4)), []byte(segMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		if lsn, err := w.Append(0, []byte("y")); err != nil || lsn != uint64(4+round) {
			t.Fatalf("round %d append = (%d, %v), want lsn %d", round, lsn, err, 4+round)
		}
		count := 0
		if err := w.Replay(0, func(Record) error { count++; return nil }); err != nil || count != 4+round {
			t.Fatalf("round %d replay = (%d, %v), want %d records", round, count, err, 4+round)
		}
		w.Close()
	}
}

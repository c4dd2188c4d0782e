package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// collect drains one Next pass into a slice of LSNs.
func collect(t *testing.T, tl *Cursor) []uint64 {
	t.Helper()
	var got []uint64
	n, err := tl.Next(func(r Record) error {
		got = append(got, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if n != len(got) {
		t.Fatalf("tail reported %d deliveries, fn saw %d", n, len(got))
	}
	return got
}

func TestCursorDeliversAndResumes(t *testing.T) {
	w := openTemp(t, Options{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tl := w.Cursor(0)
	if got := collect(t, tl); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("first pass = %v, want 1..5", got)
	}
	if tl.next != 6 {
		t.Fatalf("tail position = %d, want 6", tl.next)
	}
	// Nothing new: an empty pass, not an error.
	if got := collect(t, tl); len(got) != 0 {
		t.Fatalf("idle pass delivered %v", got)
	}
	// Live appends picked up on the next pass.
	w.Append(1, []byte("later"))
	w.Append(1, []byte("later2"))
	if got := collect(t, tl); len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("live pass = %v, want [6 7]", got)
	}
}

func TestCursorFromLSN(t *testing.T) {
	w := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		w.Append(0, []byte("x"))
	}
	got := collect(t, w.Cursor(7))
	if len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("Cursor(7) = %v, want 7..10", got)
	}
}

func TestCursorAcrossSegmentRolls(t *testing.T) {
	w := openTemp(t, Options{SegmentBytes: 256})
	payload := make([]byte, 64)
	tl := w.Cursor(0)
	var all []uint64
	for i := 0; i < 50; i++ {
		w.Append(0, payload)
		if i%7 == 0 { // interleave tailing with appends that roll segments
			all = append(all, collect(t, tl)...)
		}
	}
	all = append(all, collect(t, tl)...)
	if len(all) != 50 {
		t.Fatalf("tailed %d records across rolls, want 50", len(all))
	}
	for i, lsn := range all {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	if segs, _ := w.segments(); len(segs) < 3 {
		t.Fatalf("test did not roll segments (%d)", len(segs))
	}
}

func TestCursorCheckpointedAway(t *testing.T) {
	w := openTemp(t, Options{SegmentBytes: 256})
	payload := make([]byte, 64)
	var last uint64
	for i := 0; i < 50; i++ {
		last, _ = w.Append(0, payload)
	}
	if err := w.Checkpoint(last); err != nil {
		t.Fatal(err)
	}
	_, err := w.Cursor(1).Next(func(Record) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("tail of checkpointed position = %v, want ErrTruncated", err)
	}
	// A position still retained tails fine after the checkpoint.
	got := collect(t, w.Cursor(last))
	if len(got) == 0 || got[len(got)-1] != last {
		t.Fatalf("tail of retained position = %v, want it to end at %d", got, last)
	}
}

func TestCursorFnErrorRedelivers(t *testing.T) {
	w := openTemp(t, Options{})
	w.Append(0, []byte("a"))
	w.Append(0, []byte("b"))
	tl := w.Cursor(0)
	boom := errors.New("boom")
	n, err := tl.Next(func(r Record) error {
		if r.LSN == 2 {
			return boom
		}
		return nil
	})
	if n != 1 || !errors.Is(err, boom) {
		t.Fatalf("Next = (%d, %v), want (1, boom)", n, err)
	}
	// The failed record was not consumed: it re-delivers.
	if got := collect(t, tl); len(got) != 1 || got[0] != 2 {
		t.Fatalf("redelivery pass = %v, want [2]", got)
	}
}

// lastSegPath returns the newest segment file of an open WAL.
func lastSegPath(t *testing.T, w *WAL) string {
	t.Helper()
	segs, err := w.segments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	return filepath.Join(w.dir, segName(segs[len(segs)-1]))
}

func TestCursorPartialRecordWaits(t *testing.T) {
	w := openTemp(t, Options{})
	for i := 0; i < 3; i++ {
		w.Append(0, []byte("whole"))
	}
	tl := w.Cursor(0)
	if got := collect(t, tl); len(got) != 3 {
		t.Fatalf("first pass = %v", got)
	}
	// Simulate an append caught mid-flush: a partial record header at
	// the tail. (w's own buffered writer is empty after the cursor's
	// flush, and O_APPEND keeps future appends ordered after it.)
	w.Flush()
	f, err := os.OpenFile(lastSegPath(t, w), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0x02, 0x03})
	f.Close()
	// A partial record is "not yet", never corruption.
	n, err := tl.Next(func(Record) error { return nil })
	if n != 0 || err != nil {
		t.Fatalf("partial-tail pass = (%d, %v), want (0, nil)", n, err)
	}
	if tl.next != 4 {
		t.Fatalf("tail position moved to %d over a partial record", tl.next)
	}
}

func TestCursorChecksumMismatchIsTorn(t *testing.T) {
	w := openTemp(t, Options{})
	for i := 0; i < 3; i++ {
		w.Append(0, []byte("payload-payload"))
	}
	w.Flush()
	tl := w.Cursor(0)
	// Corrupt the last record's payload in place: its bytes are fully
	// present, so this is real corruption, not an in-progress append.
	path := lastSegPath(t, w)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xFF}, fi.Size()-1)
	f.Close()
	n, err := tl.Next(func(Record) error { return nil })
	var torn *TornTailError
	if !errors.As(err, &torn) {
		t.Fatalf("corrupt-tail pass = (%d, %v), want *TornTailError", n, err)
	}
	if n != 2 {
		t.Fatalf("delivered %d intact records before corruption, want 2", n)
	}
}

// TestCursorShortRecordInSealedSegment cuts the first of three
// segments mid-record. The writer has rolled past it, so the missing
// bytes will never arrive: every read of the log reports a
// *TornTailError instead of waiting for them.
func TestCursorShortRecordInSealedSegment(t *testing.T) {
	w := openTemp(t, Options{SegmentBytes: 256})
	payload := make([]byte, 64)
	for i := 0; i < 9; i++ {
		if _, err := w.Append(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	segs, err := w.segments()
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments = %v (%v), want three", segs, err)
	}
	path := filepath.Join(w.dir, segName(segs[0]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	var torn *TornTailError
	tl := w.Cursor(0)
	for pass := 0; pass < 2; pass++ {
		n, err := tl.Next(func(Record) error { return nil })
		if !errors.As(err, &torn) {
			t.Fatalf("pass %d over a cut sealed segment = (%d, %v), want *TornTailError", pass, n, err)
		}
	}
	if tl.next != 3 {
		t.Fatalf("cursor stopped before lsn %d, want 3", tl.next)
	}
	if err := w.Replay(0, func(Record) error { return nil }); !errors.As(err, &torn) {
		t.Fatalf("Replay over a cut sealed segment = %v, want *TornTailError", err)
	}
}

// TestRecoveryTruncateMidRecord cuts the newest segment mid-record —
// a crash half-way through a write — and verifies recovery stops at
// exactly the last valid LSN: the torn record is gone, every record
// before it survives, and the LSN sequence continues where it left off.
func TestRecoveryTruncateMidRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := w.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	path := lastSegPath(t, w)
	w.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 5 bytes off the tail: record 10 loses part of its payload.
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open after mid-record truncation: %v", err)
	}
	defer w2.Close()
	var lsns []uint64
	if err := w2.Replay(0, func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != total-1 || lsns[len(lsns)-1] != total-1 {
		t.Fatalf("recovered LSNs %v, want exactly 1..%d", lsns, total-1)
	}
	if next := w2.NextLSN(); next != total {
		t.Fatalf("NextLSN after recovery = %d, want %d (torn record's slot reused)", next, total)
	}
	lsn, err := w2.Append(1, []byte("after-crash"))
	if err != nil || lsn != total {
		t.Fatalf("append after recovery = (%d, %v), want (%d, nil)", lsn, err, total)
	}
}

// TestRecoveryCRCFlipInLastRecord flips one payload byte of the final
// record — bytes all present, checksum wrong — and verifies recovery
// treats it exactly like a torn tail: truncate to the last valid LSN
// and keep appending from there.
func TestRecoveryCRCFlipInLastRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := w.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	path := lastSegPath(t, w)
	w.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xA5}, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open after CRC flip: %v", err)
	}
	defer w2.Close()
	var lsns []uint64
	if err := w2.Replay(0, func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != total-1 || lsns[len(lsns)-1] != total-1 {
		t.Fatalf("recovered LSNs %v, want exactly 1..%d", lsns, total-1)
	}
	// The corrupt record was truncated away; the file now ends at the
	// last valid record boundary and appends continue from its LSN.
	lsn, err := w2.Append(1, []byte("after-flip"))
	if err != nil || lsn != total {
		t.Fatalf("append after recovery = (%d, %v), want (%d, nil)", lsn, err, total)
	}
	count := 0
	if err := w2.Replay(0, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != total {
		t.Fatalf("final replay = %d records, want %d", count, total)
	}
}

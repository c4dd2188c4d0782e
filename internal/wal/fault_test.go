package wal

import (
	"errors"
	"testing"

	"eventdb/internal/vfs"
)

// TestTornWriteSweep injects a short write at every byte offset of a
// commit-sized record and asserts that recovery — both the in-process
// RecoverTail path and a fresh Open — truncates to the last good LSN
// and resumes appending cleanly.
func TestTornWriteSweep(t *testing.T) {
	first := []byte("first-commit-payload")
	second := []byte("second-commit-torn!!")
	recSize := recHeaderSize + len(second)

	for delta := 0; delta < recSize; delta++ {
		dir := t.TempDir()
		fsys := vfs.NewFaulty(nil)
		w, err := Open(Options{Dir: dir, SyncEvery: 1, FS: fsys})
		if err != nil {
			t.Fatalf("delta=%d open: %v", delta, err)
		}
		lsn, err := w.Append(1, first)
		if err != nil || lsn != 1 {
			t.Fatalf("delta=%d first append: lsn=%d err=%v", delta, lsn, err)
		}

		// Tear the next record at exactly delta bytes in.
		boom := errors.New("injected ENOSPC")
		fsys.FailWritesAt(fsys.BytesWritten()+int64(delta), boom)
		if _, err := w.Append(1, second); err == nil {
			t.Fatalf("delta=%d torn append unexpectedly succeeded", delta)
		}

		// In-process recovery: heal the device, re-verify the tail.
		fsys.Heal()
		if err := w.RecoverTail(1); err != nil {
			t.Fatalf("delta=%d RecoverTail: %v", delta, err)
		}
		if got := w.NextLSN(); got != 2 {
			t.Fatalf("delta=%d NextLSN after recover = %d, want 2", delta, got)
		}
		lsn, err = w.Append(1, []byte("after-recover"))
		if err != nil || lsn != 2 {
			t.Fatalf("delta=%d post-recover append: lsn=%d err=%v", delta, lsn, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("delta=%d close: %v", delta, err)
		}

		// A fresh Open over the same files must see exactly records 1-2.
		w2, err := Open(Options{Dir: dir, SyncEvery: 1})
		if err != nil {
			t.Fatalf("delta=%d reopen: %v", delta, err)
		}
		var got []uint64
		if err := w2.Replay(0, func(r Record) error {
			got = append(got, r.LSN)
			return nil
		}); err != nil {
			t.Fatalf("delta=%d replay: %v", delta, err)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("delta=%d replayed LSNs = %v, want [1 2]", delta, got)
		}
		w2.Close()
	}
}

// TestCursorTornWriteSweep follows a live log through the torn write
// of TestTornWriteSweep: record 2 cut at every byte offset. The cursor
// delivers record 1, passes over the torn bytes without error (a cut at
// the end of the newest segment may be a write in flight), and after
// RecoverTail and a new Append delivers the new record 2 exactly once.
func TestCursorTornWriteSweep(t *testing.T) {
	second := []byte("second-commit-torn!!")
	for delta := 0; delta < recHeaderSize+len(second); delta++ {
		fsys := vfs.NewFaulty(nil)
		w, err := Open(Options{Dir: t.TempDir(), SyncEvery: 1, FS: fsys})
		if err != nil {
			t.Fatalf("delta=%d open: %v", delta, err)
		}
		c := w.Cursor(0)
		var got []Record
		next := func() (int, error) {
			return c.Next(func(r Record) error {
				got = append(got, r)
				return nil
			})
		}
		if _, err := w.Append(1, []byte("first-commit-payload")); err != nil {
			t.Fatalf("delta=%d first append: %v", delta, err)
		}
		if n, err := next(); n != 1 || err != nil || got[0].LSN != 1 {
			t.Fatalf("delta=%d first pass = (%d, %v), want record 1", delta, n, err)
		}
		fsys.FailWritesAt(fsys.BytesWritten()+int64(delta), errors.New("injected ENOSPC"))
		if _, err := w.Append(1, second); err == nil {
			t.Fatalf("delta=%d torn append unexpectedly succeeded", delta)
		}
		if n, err := next(); n != 0 || err != nil {
			t.Fatalf("delta=%d pass over the torn bytes = (%d, %v), want (0, nil)", delta, n, err)
		}
		fsys.Heal()
		if err := w.RecoverTail(1); err != nil {
			t.Fatalf("delta=%d RecoverTail: %v", delta, err)
		}
		if _, err := w.Append(1, []byte("after-recover")); err != nil {
			t.Fatalf("delta=%d post-recover append: %v", delta, err)
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := next(); err != nil {
				t.Fatalf("delta=%d pass after recovery: %v", delta, err)
			}
		}
		if len(got) != 2 || got[1].LSN != 2 || string(got[1].Data) != "after-recover" {
			t.Fatalf("delta=%d delivered %d records, want record 1 then the new record 2 once", delta, len(got))
		}
		w.Close()
	}
}

// TestRecoverTailFsyncStillFailing keeps the device broken through the
// recovery attempt: RecoverTail must fail (the caller stays degraded)
// and succeed once the fault clears.
func TestRecoverTailFsyncStillFailing(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaulty(nil)
	w, err := Open(Options{Dir: dir, SyncEvery: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected EIO")
	fsys.FailSyncsAfter(0, boom)
	if _, err := w.Append(1, []byte("doomed")); err == nil {
		t.Fatal("append with failing fsync unexpectedly succeeded")
	}
	if err := w.RecoverTail(1); err == nil {
		t.Fatal("RecoverTail with failing fsync unexpectedly succeeded")
	}
	fsys.Heal()
	if err := w.RecoverTail(1); err != nil {
		t.Fatalf("RecoverTail after heal: %v", err)
	}
	if lsn, err := w.Append(1, []byte("resumed")); err != nil || lsn != 2 {
		t.Fatalf("append after recover: lsn=%d err=%v", lsn, err)
	}
}

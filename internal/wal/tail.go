package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrTruncated reports that a tail position has been checkpointed away:
// the oldest retained segment starts after the requested LSN, so the
// records there can never be streamed. Replication callers should fall
// back to a full resync (or start a fresh follower) when they see it.
var ErrTruncated = errors.New("wal: tail position checkpointed away")

// Tailer incrementally reads records from a live WAL, resuming where
// the previous Next call left off. Unlike Replay it remembers its byte
// position, so repeated polling of a growing log is O(new data), not
// O(log). It is the read side of WAL shipping: the leader's REPLICATE
// stream drives one Tailer per follower.
//
// A Tailer is not safe for concurrent use; the WAL it reads may be
// appended to concurrently. Records that are only partially flushed
// (the writer's buffer can split a record across flushes) are left for
// the next call rather than reported as corruption: segment files are
// strict prefixes of the logical stream, so a short read means "not
// yet", while a checksum mismatch on fully-present bytes is real
// corruption and is returned as a *TornTailError.
type Tailer struct {
	w    *WAL
	next uint64 // lowest LSN not yet delivered
	seg  uint64 // start LSN of the segment being read; 0 = unpositioned
	off  int64  // byte offset of the next unread record within seg
}

// NewTailer returns a Tailer that will deliver every record with
// LSN >= fromLSN. fromLSN 0 is normalized to 1 (the first LSN ever
// assigned).
func (w *WAL) NewTailer(fromLSN uint64) *Tailer {
	if fromLSN == 0 {
		fromLSN = 1
	}
	return &Tailer{w: w, next: fromLSN}
}

// Next flushes the log and delivers every intact record at or past the
// tail position, in LSN order, returning how many fn received. A
// record mid-append when the flush ran is left for the next call. fn
// errors abort the call and are returned verbatim; the already-read
// records stay consumed.
func (t *Tailer) Next(fn func(Record) error) (int, error) {
	if err := t.w.Flush(); err != nil {
		return 0, err
	}
	delivered := 0
	for {
		if t.seg == 0 {
			segs, err := t.w.segments()
			if err != nil {
				return delivered, err
			}
			if len(segs) == 0 {
				return delivered, nil
			}
			pos := -1
			for i, s := range segs {
				if s <= t.next {
					pos = i
				}
			}
			if pos < 0 {
				return delivered, fmt.Errorf("%w: want lsn %d, oldest segment starts at %d", ErrTruncated, t.next, segs[0])
			}
			t.seg = segs[pos]
			t.off = int64(segHeaderSize)
		}
		d, cleanEOF, err := t.readSegment(fn)
		delivered += d
		if err != nil || !cleanEOF {
			return delivered, err
		}
		// Clean end of segment: advance only if the writer has rolled
		// onward and the records we want live in a newer segment.
		segs, err := t.w.segments()
		if err != nil {
			return delivered, err
		}
		var nextSeg uint64
		for _, s := range segs {
			if s > t.seg {
				nextSeg = s
				break // segments() sorts ascending
			}
		}
		if nextSeg == 0 || nextSeg > t.next {
			return delivered, nil
		}
		t.seg, t.off = nextSeg, int64(segHeaderSize)
	}
}

// readSegment reads intact records from the remembered offset of the
// current segment, delivering those at or past the cursor. cleanEOF is
// true only when the file ended exactly on a record boundary; a
// partial record (still being written) returns cleanEOF=false with no
// error so the caller retries later from the same offset.
func (t *Tailer) readSegment(fn func(Record) error) (delivered int, cleanEOF bool, err error) {
	path := filepath.Join(t.w.dir, segName(t.seg))
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Checkpoint removed the segment under us.
			return 0, false, fmt.Errorf("%w: segment %s removed", ErrTruncated, segName(t.seg))
		}
		return 0, false, fmt.Errorf("wal: tail open: %w", err)
	}
	defer f.Close()
	if t.off == int64(segHeaderSize) {
		hdr := make([]byte, segHeaderSize)
		if _, err := io.ReadFull(f, hdr); err != nil {
			return 0, false, nil // header not fully written yet
		}
		if string(hdr[:len(segMagic)]) != segMagic {
			return 0, false, fmt.Errorf("wal: bad segment magic in %s", path)
		}
	} else if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return 0, false, fmt.Errorf("wal: tail seek: %w", err)
	}
	br := bufio.NewReaderSize(f, 256<<10)
	hdr := make([]byte, recHeaderSize)
	for {
		n, err := io.ReadFull(br, hdr)
		if err != nil {
			// io.EOF means zero bytes were read: a record boundary.
			return delivered, err == io.EOF && n == 0, nil
		}
		wantCRC := binary.BigEndian.Uint32(hdr[0:4])
		length := binary.BigEndian.Uint32(hdr[4:8])
		lsn := binary.BigEndian.Uint64(hdr[8:16])
		typ := hdr[16]
		if length > 1<<30 {
			return delivered, false, &TornTailError{Offset: t.off, Reason: "implausible record length"}
		}
		data := make([]byte, length)
		if _, err := io.ReadFull(br, data); err != nil {
			return delivered, false, nil // payload not fully written yet
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[4:])
		crc.Write(data)
		if crc.Sum32() != wantCRC {
			return delivered, false, &TornTailError{Offset: t.off, Reason: "checksum mismatch"}
		}
		if lsn >= t.next {
			if err := fn(Record{LSN: lsn, Type: typ, Data: data}); err != nil {
				// The record was not consumed; re-deliver it next call.
				return delivered, false, err
			}
			delivered++
			t.next = lsn + 1
		}
		t.off += int64(recHeaderSize) + int64(length)
	}
}

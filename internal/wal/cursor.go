package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
)

// ErrTruncated reports that a cursor position has been checkpointed
// away: the oldest retained segment starts after the requested LSN, so
// the records there can never be read. Replication callers should fall
// back to a full resync (or start a fresh follower) when they see it.
var ErrTruncated = errors.New("wal: tail position checkpointed away")

// Cursor reads the log's records in LSN order, resuming where its
// previous Next left off: it remembers the segment, the byte offset in
// it and the next LSN, so following a growing log costs O(new data),
// not O(log). It is the one reader of the log — Replay, the scans that
// find the log's end on Open and RecoverTail, the REPLICATE stream and
// journal capture all read through it — and it opens segments through
// the log's vfs.FS.
//
// A Cursor is not safe for concurrent use; the WAL it reads may be
// appended to concurrently. A record cut short at the end of the newest
// segment is a write still in flight (the writer's buffer can split a
// record across flushes) and is left for the next call. The same cut in
// a segment the writer has rolled past, and a checksum mismatch on
// bytes that are all present, are corruption: a *TornTailError.
type Cursor struct {
	w    *WAL
	next uint64 // lowest LSN not yet delivered
	seg  uint64 // start LSN of the segment being read; 0 = unpositioned
	off  int64  // offset of the next unread record in seg; 0 = header unread
	br   *bufio.Reader
	hdr  [recHeaderSize]byte
}

// Cursor returns a cursor that delivers every record with
// LSN >= fromLSN. fromLSN 0 is normalized to 1 (the first LSN ever
// assigned).
func (w *WAL) Cursor(fromLSN uint64) *Cursor {
	return &Cursor{w: w, next: max(fromLSN, 1)}
}

// Next hands the log's buffered records to its files and delivers every
// intact record at or past the cursor, in LSN order, returning how many
// fn received. fn errors abort the call and are returned verbatim; the
// record fn refused is delivered again by the next call.
func (c *Cursor) Next(fn func(Record) error) (int, error) {
	// A failed flush is the writer's to report (the Append whose bytes
	// it holds has failed); the cursor reads what reached the file.
	c.w.Flush()
	return c.read(fn)
}

// read is Next without the flush; it takes no WAL lock.
func (c *Cursor) read(fn func(Record) error) (int, error) {
	if c.seg == 0 {
		segs, err := c.w.segments()
		if err != nil || len(segs) == 0 {
			return 0, err
		}
		i := sort.Search(len(segs), func(i int) bool { return segs[i] > c.next }) - 1
		if i < 0 {
			return 0, fmt.Errorf("%w: want lsn %d, oldest segment starts at %d", ErrTruncated, c.next, segs[0])
		}
		c.seg = segs[i]
	}
	delivered := 0
	// sealed: a newer segment existed before this read of c.seg began,
	// so the writer had finished with it.
	sealed := false
	for {
		n, err := c.drainSegment(fn, sealed)
		delivered += n
		if err != nil {
			return delivered, err
		}
		newer, err := c.w.segmentAfter(c.seg)
		if err != nil || newer == 0 {
			return delivered, err
		}
		if sealed {
			c.seg, c.off, sealed = newer, 0, false
		} else {
			// The roll may have landed after this read: read the rest
			// of the now finished segment once more before moving on.
			sealed = true
		}
	}
}

// drainSegment delivers the intact records of c.seg from c.off on. It
// stops without error where the file ends on a record boundary, and
// where a record is cut short unless the segment is sealed.
func (c *Cursor) drainSegment(fn func(Record) error, sealed bool) (int, error) {
	path := filepath.Join(c.w.dir, segName(c.seg))
	f, err := c.w.fs.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Checkpoint removed the segment under us.
			return 0, fmt.Errorf("%w: segment %s removed", ErrTruncated, segName(c.seg))
		}
		return 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	r := io.NewSectionReader(f, c.off, math.MaxInt64-c.off)
	if c.br == nil {
		c.br = bufio.NewReaderSize(r, 256<<10)
	} else {
		c.br.Reset(r)
	}
	if c.off == 0 {
		var hdr [segHeaderSize]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return 0, err
			}
			if sealed {
				return 0, &TornTailError{Offset: 0, Reason: "short segment header"}
			}
			return 0, nil // header not fully written yet
		}
		if string(hdr[:len(segMagic)]) != segMagic {
			return 0, fmt.Errorf("wal: bad segment magic in %s", path)
		}
		c.off = int64(segHeaderSize)
	}
	delivered := 0
	for {
		rec, err := readRecord(c.br, c.off, c.hdr[:])
		if err != nil {
			var torn *TornTailError
			if err == io.EOF || (!sealed && errors.As(err, &torn) && torn.cut) {
				err = nil
			}
			return delivered, err
		}
		if rec.LSN >= c.next {
			if err := fn(rec); err != nil {
				return delivered, err
			}
			delivered++
			c.next = rec.LSN + 1
		}
		c.off += int64(recHeaderSize + len(rec.Data))
	}
}

// Package wal implements a segmented write-ahead log: the engine's
// journal. The storage engine logs every committed transaction here, and
// the journal-mining capture path (paper §2.2.a.ii — "capturing events
// using journals") tails it to turn committed changes into events,
// exactly as commercial log-mining tools do against a redo log.
//
// Format: each segment file starts with an 8-byte magic and the LSN of
// its first record. Records are individually CRC-checked so a torn tail
// (crash mid-write) is detected and truncated on open rather than
// corrupting replay.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eventdb/internal/vfs"
)

const (
	segMagic      = "EDBWAL01"
	segHeaderSize = len(segMagic) + 8
	recHeaderSize = 4 + 4 + 8 + 1 // crc, len, lsn, type
)

// DefaultSegmentBytes is the roll threshold for new segments.
const DefaultSegmentBytes = 8 << 20

// Record is one logged entry.
type Record struct {
	LSN  uint64
	Type uint8
	Data []byte
}

// Options configures Open.
type Options struct {
	// Dir is the directory holding segment files. Created if absent.
	Dir string
	// SegmentBytes is the approximate maximum segment size before
	// rolling to a new file. Defaults to DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery makes Append fsync after every n-th record. 0 disables
	// implicit syncing (callers may still call Sync); 1 syncs every
	// append (group-commit callers batch first).
	SyncEvery int
	// FS is the filesystem to write through. Nil means the real one;
	// tests inject vfs.Faulty to exercise torn writes and fsync errors.
	FS vfs.FS
}

// WAL is an append-only, replayable log. Safe for concurrent use.
type WAL struct {
	mu        sync.Mutex
	dir       string
	segBytes  int64
	syncEvery int
	fs        vfs.FS

	f        vfs.File
	w        *bufio.Writer
	curSize  int64
	segStart atomic.Uint64 // start LSN of the active segment; read without mu by cursors
	nextLSN  uint64
	unsync   int

	// Group-commit state: concurrent appenders that each need
	// durability share one fsync instead of queueing one apiece (see
	// SyncTo). syncMu orders the cohort; syncedLSN is the position
	// through which the log is known durable; syncing marks an fsync in
	// flight, and cond wakes the waiters riding on it.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedLSN uint64
}

// Open opens (or creates) the log in opts.Dir, recovering from any torn
// tail in the newest segment.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	fsys := vfs.Default(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	w := &WAL{
		dir:       opts.Dir,
		segBytes:  opts.SegmentBytes,
		syncEvery: opts.SyncEvery,
		fs:        fsys,
		nextLSN:   1,
	}
	w.syncCond = sync.NewCond(&w.syncMu)
	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.rollLocked(w.nextLSN); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Recover: find the end of the newest segment and the next LSN.
	c, err := w.reopenNewest(segs[len(segs)-1], func(Record) error { return nil })
	if err != nil {
		return nil, err
	}
	w.nextLSN = c.next
	return w, nil
}

func segName(startLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", startLSN)
}

// segments returns the sorted start-LSNs of all segment files.
func (w *WAL) segments() ([]uint64, error) {
	entries, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		n, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// rollLocked starts a new segment whose first record will be startLSN.
func (w *WAL) rollLocked(startLSN uint64) error {
	if w.w != nil {
		if err := w.w.Flush(); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, segName(startLSN))
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.BigEndian.PutUint64(hdr[len(segMagic):], startLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write header: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.curSize = int64(segHeaderSize)
	w.segStart.Store(startLSN)
	return nil
}

// Append logs one record and returns its LSN. When the record crosses
// the SyncEvery cadence it is durable on return.
func (w *WAL) Append(typ uint8, data []byte) (uint64, error) {
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, errors.New("wal: closed")
	}
	lsn := w.nextLSN
	w.nextLSN++
	if w.curSize >= w.segBytes {
		if err := w.rollLocked(lsn); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(data)))
	binary.BigEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = typ
	binary.BigEndian.PutUint32(hdr[0:4], recordCRC(hdr[:], data))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	if _, err := w.w.Write(data); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.curSize += int64(recHeaderSize + len(data))
	w.unsync++
	need := w.syncEvery > 0 && w.unsync >= w.syncEvery
	w.mu.Unlock()
	if need {
		// Durability outside the append lock: other goroutines keep
		// appending (buffered) while this record's fsync runs, and
		// concurrent appenders that also crossed the cadence share one
		// fsync (group commit) instead of queueing one each.
		if err := w.SyncTo(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// SyncTo ensures the log is durable through lsn, coalescing concurrent
// callers into a single fsync: if another goroutine's in-flight sync
// covers lsn, this call just waits for it (group commit). Returns
// immediately when lsn is already durable.
func (w *WAL) SyncTo(lsn uint64) error {
	w.syncMu.Lock()
	for {
		if w.syncedLSN >= lsn {
			w.syncMu.Unlock()
			return nil
		}
		if !w.syncing {
			break
		}
		// An fsync is in flight; it may cover lsn — wait and re-check.
		w.syncCond.Wait()
	}
	w.syncing = true
	w.syncMu.Unlock()

	w.mu.Lock()
	var target uint64
	var err error
	if w.f == nil {
		err = errors.New("wal: closed")
	} else {
		target = w.nextLSN - 1 // everything appended so far rides along
		err = w.syncLocked()
	}
	w.mu.Unlock()

	w.syncMu.Lock()
	w.syncing = false
	if err == nil && target > w.syncedLSN {
		w.syncedLSN = target
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return err
}

// Sync flushes buffered records and fsyncs the current segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: closed")
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.unsync = 0
	return nil
}

// Flush flushes buffered writes to the OS without fsync (visible to
// readers of the file, not crash-durable).
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("wal: closed")
	}
	return w.w.Flush()
}

// NextLSN returns the LSN the next Append will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// segmentAfter returns the start LSN of the segment after seg, or 0
// when seg is the newest. It takes no lock: Open and RecoverTail read
// through cursors while holding mu.
func (w *WAL) segmentAfter(seg uint64) (uint64, error) {
	if seg == w.segStart.Load() {
		return 0, nil
	}
	segs, err := w.segments()
	if err != nil {
		return 0, err
	}
	if i := sort.Search(len(segs), func(i int) bool { return segs[i] > seg }); i < len(segs) {
		return segs[i], nil
	}
	return 0, nil
}

// Close flushes, syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	cerr := w.f.Close()
	w.f = nil
	w.w = nil
	if err != nil {
		return err
	}
	return cerr
}

// Replay invokes fn for every intact record with LSN >= fromLSN, in LSN
// order across all segments: one pass of a Cursor. A record cut short at
// the end of the newest segment ends replay without error; corruption,
// and a cut anywhere else, is reported as a *TornTailError.
func (w *WAL) Replay(fromLSN uint64, fn func(Record) error) error {
	_, err := w.Cursor(fromLSN).Next(fn)
	return err
}

// Checkpoint removes whole segments that contain only records with
// LSN < keepLSN. The segment containing keepLSN is retained.
func (w *WAL) Checkpoint(keepLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for i, start := range segs {
		// Removable if the next segment starts at or below keepLSN
		// (meaning every record here is < keepLSN) and it is not the
		// active segment.
		if i+1 >= len(segs) || segs[i+1] > keepLSN || start == w.segStart.Load() {
			continue
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segName(start))); err != nil {
			return fmt.Errorf("wal: checkpoint remove: %w", err)
		}
	}
	return nil
}

// errStopScan ends a scan of the newest segment at the applied horizon.
var errStopScan = errors.New("wal: stop scan")

// RecoverTail re-verifies the tail of the log after a write or fsync
// failure left its on-disk state unknown, and reopens it for appends.
// Everything past the last intact record with LSN <= lastApplied is
// discarded: records beyond that horizon were never applied (their
// Append returned an error before the commit was acknowledged), so
// truncating them loses no acknowledged write. The surviving tail is
// fsynced before returning — if the device still refuses durability,
// the error is returned and the log stays unusable for appends, so the
// caller remains fail-stopped.
func (w *WAL) RecoverTail(lastApplied uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		// Best effort: if the fault was transient the buffered tail may
		// still make it down intact (bufio poisons itself after an
		// error, so this is a no-op for the failed writer path).
		if w.w != nil && w.w.Flush() == nil {
			w.f.Sync()
		}
		w.f.Close()
		w.f, w.w = nil, nil
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return errors.New("wal: no segments to recover")
	}
	// A roll during the failed append can leave a whole segment past the
	// applied horizon; drop it before scanning.
	for len(segs) > 1 && segs[len(segs)-1] > lastApplied {
		if err := w.fs.Remove(filepath.Join(w.dir, segName(segs[len(segs)-1]))); err != nil {
			return fmt.Errorf("wal: recover remove: %w", err)
		}
		segs = segs[:len(segs)-1]
	}
	c, err := w.reopenNewest(segs[len(segs)-1], func(r Record) error {
		if r.LSN > lastApplied {
			return errStopScan
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Prove the device accepts durability again before resuming.
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.f, w.w = nil, nil
		return fmt.Errorf("wal: recover fsync: %w", err)
	}
	// Never reissue an LSN the caller already applied: with a sync
	// cadence > 1 an applied record can be lost with the poisoned write
	// buffer, leaving a gap in the log — a gap is harmless to replay,
	// but LSN reuse would corrupt journal mining and replication.
	w.nextLSN = max(c.next, lastApplied+1)
	w.unsync = 0
	w.syncMu.Lock()
	// The fsync above re-established durability through the verified
	// tail; nothing past it exists any more.
	w.syncedLSN = c.next - 1
	w.syncMu.Unlock()
	return nil
}

// reopenNewest makes the newest segment, last, the append target: a
// cursor reads it until keep refuses a record or the intact records
// end, the file is cut back to that point, and appends resume there.
// The returned cursor's next LSN follows the kept records. A segment
// whose header never reached the file is started afresh.
func (w *WAL) reopenNewest(last uint64, keep func(Record) error) (*Cursor, error) {
	c := w.Cursor(last)
	var torn *TornTailError
	if _, err := c.read(keep); err != nil && !errors.Is(err, errStopScan) && !errors.As(err, &torn) {
		return nil, err
	}
	path := filepath.Join(w.dir, segName(last))
	if c.off == 0 {
		if err := w.fs.Remove(path); err != nil {
			return nil, fmt.Errorf("wal: remove headerless segment: %w", err)
		}
		return c, w.rollLocked(last)
	}
	if err := w.fs.Truncate(path, c.off); err != nil {
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.curSize = c.off
	w.segStart.Store(last)
	return c, nil
}

// TornTailError reports a record that failed validation, most likely a
// crash mid-append.
type TornTailError struct {
	Offset int64
	Reason string
	// cut marks a record whose bytes end early: at the end of the
	// newest segment that is a write still in flight, not corruption.
	cut bool
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("wal: torn/corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// recordCRC is the checksum a record header carries: over the rest of
// the header and the payload.
func recordCRC(hdr, data []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[4:recHeaderSize]), crc32.IEEETable, data)
}

// readRecord parses the record at off, the reader's position. It
// returns io.EOF when the reader ends exactly there, and a
// *TornTailError for a record cut short or failing validation. hdr is
// scratch of recHeaderSize bytes.
func readRecord(br *bufio.Reader, off int64, hdr []byte) (Record, error) {
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err != io.ErrUnexpectedEOF {
			return Record{}, err // io.EOF: the reader ends on a record boundary
		}
		return Record{}, &TornTailError{Offset: off, Reason: "short record header", cut: true}
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length > 1<<30 {
		return Record{}, &TornTailError{Offset: off, Reason: "implausible record length"}
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(br, data); err != nil {
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			return Record{}, err
		}
		return Record{}, &TornTailError{Offset: off, Reason: "short record payload", cut: true}
	}
	if recordCRC(hdr, data) != binary.BigEndian.Uint32(hdr[0:4]) {
		return Record{}, &TornTailError{Offset: off, Reason: "checksum mismatch"}
	}
	return Record{LSN: binary.BigEndian.Uint64(hdr[8:16]), Type: hdr[16], Data: data}, nil
}

package columnar

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/vfs"
)

// readFile is os.ReadFile through a vfs.FS.
func readFile(fsys vfs.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Segment files make restart cheap: instead of re-mining the whole
// WAL into the tail and re-sealing, Attach reloads sealed history
// directly. The file carries the raw row values (ids, LSNs, and each
// value in the WAL's binary value encoding) plus a whole-file CRC;
// loading appends them to a scratch tail and seals it with
// encodeSegment, as a live seal does, so the on-disk format can never
// drift from the in-memory one. A
// file that fails any check — magic, CRC, schema fingerprint, LSN/ID
// contiguity, an LSN the WAL has not reached — is deleted and its rows
// are rebuilt from the WAL by the normal bootstrap path. The WAL stays
// the source of truth. For live rows a file is a cache of it; for dead
// ones, which memory does not keep, it is the copy MineInserts reads
// (readSegment), the WAL the fallback.

const segMagic = "EDBSEG1\n"

func segFileName(table string, firstLSN uint64) string {
	// Hex-encode the table name so arbitrary names are filesystem-safe.
	return fmt.Sprintf("%x-%016x.seg", table, firstLSN)
}

// writeSegmentFile serializes a sealed segment to w. Layout:
//
//	magic | table | ncols (name, kind)* | nrows | id deltas |
//	lsn deltas | row values | crc32(everything before)
//
// It streams: the file is never whole in memory, so writing one costs a
// write buffer, not a copy of the segment.
func writeSegmentFile(w io.Writer, seg *Segment) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	buf := []byte(segMagic) // scratch: handed to bw piece by piece
	buf = appendStr(buf, seg.table)
	buf = binary.AppendUvarint(buf, uint64(len(seg.schema.Columns)))
	for _, c := range seg.schema.Columns {
		buf = appendStr(buf, c.Name)
		buf = append(buf, byte(c.Kind))
	}
	buf = binary.AppendUvarint(buf, uint64(seg.rows))
	var prevID, prevLSN uint64
	for _, id := range seg.ids {
		buf = binary.AppendUvarint(buf, uint64(id)-prevID)
		prevID = uint64(id)
	}
	for _, lsn := range seg.lsns {
		buf = binary.AppendUvarint(buf, lsn-prevLSN)
		prevLSN = lsn
	}
	bw.Write(buf) // bw keeps the first error for Flush to report
	// Row values, read back out of the columns. One reusable row
	// buffer: AppendBinary copies what it needs.
	r := seg.NewReader(nil)
	var b Batch
	row := make(storage.Row, len(seg.schema.Columns))
	for r.Next(&b) {
		for i := 0; i < b.Len; i++ {
			b.MaterializeRow(row, i)
			buf = buf[:0]
			for _, v := range row {
				buf = val.AppendBinary(buf, v)
			}
			bw.Write(buf)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf[:0], crc.Sum32()))
	return err
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

type segDecodeError struct{ msg string }

func (e *segDecodeError) Error() string { return "columnar: segment file: " + e.msg }

func badSeg(format string, args ...any) error {
	return &segDecodeError{msg: fmt.Sprintf(format, args...)}
}

// decodeSegmentFile parses and validates a segment file, returning
// its rows as a tail ready to seal. The schema fingerprint (column
// names and kinds, in order) must match the live schema exactly. With
// a nil schema it only checks the file's integrity and returns the
// table name, which is how the caller finds the schema.
func decodeSegmentFile(data []byte, schema *storage.Schema) (table string, rows *tail, err error) {
	if len(data) < len(segMagic)+4 || string(data[:len(segMagic)]) != segMagic {
		return "", nil, badSeg("bad magic")
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return "", nil, badSeg("crc mismatch")
	}
	pos := len(segMagic)
	table, pos, err = readStr(body, pos)
	if err != nil || schema == nil {
		return table, nil, err
	}
	ncols, pos, err := readUvarint(body, pos)
	if err != nil {
		return "", nil, err
	}
	if ncols != uint64(len(schema.Columns)) {
		return "", nil, badSeg("schema drift: %d columns, want %d", ncols, len(schema.Columns))
	}
	for i := uint64(0); i < ncols; i++ {
		var name string
		name, pos, err = readStr(body, pos)
		if err != nil {
			return "", nil, err
		}
		if pos >= len(body) {
			return "", nil, badSeg("truncated column kinds")
		}
		kind := val.Kind(body[pos])
		pos++
		if schema.Columns[i].Name != name || schema.Columns[i].Kind != kind {
			return "", nil, badSeg("schema drift on column %d (%s %s)", i, name, kind)
		}
	}
	nrows, pos, err := readUvarint(body, pos)
	if err != nil {
		return "", nil, err
	}
	if nrows == 0 || nrows > uint64(len(body)) {
		return "", nil, badSeg("implausible row count %d", nrows)
	}
	ids := make([]storage.RowID, nrows)
	var prev uint64
	for i := range ids {
		var d uint64
		d, pos, err = readUvarint(body, pos)
		if err != nil {
			return "", nil, err
		}
		prev += d
		ids[i] = storage.RowID(prev)
	}
	lsns := make([]uint64, nrows)
	prev = 0
	for i := range lsns {
		var d uint64
		d, pos, err = readUvarint(body, pos)
		if err != nil {
			return "", nil, err
		}
		prev += d
		lsns[i] = prev
	}
	rows = newTail(schema)
	row := make(storage.Row, ncols)
	for i := range ids {
		for c := range row {
			v, n, verr := val.DecodeBinary(body[pos:])
			if verr != nil {
				return "", nil, badSeg("row %d: %v", i, verr)
			}
			row[c] = v
			pos += n
		}
		if err := rows.append(ids[i], lsns[i], lsns[i], row); err != nil {
			return "", nil, badSeg("row %d: %v", i, err)
		}
	}
	if pos != len(body) {
		return "", nil, badSeg("%d trailing bytes", len(body)-pos)
	}
	return table, rows, nil
}

func readStr(buf []byte, pos int) (string, int, error) {
	n, pos, err := readUvarint(buf, pos)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(buf)-pos) < n {
		return "", 0, badSeg("short string")
	}
	return string(buf[pos : pos+int(n)]), pos + int(n), nil
}

func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, badSeg("bad varint")
	}
	return v, pos + n, nil
}

// persistSegment writes a sealed segment to disk: temp file, fsync,
// atomic rename. A crash at any point leaves either no file or a
// complete one; partial temp files fail the CRC or magic check and
// are deleted at the next load. The WAL is flushed first: the commit
// records of the segment's rows may still be in its user-space buffer,
// and a file must never be ahead of the log that makes it recoverable.
func (m *Manager) persistSegment(seg *Segment) error {
	if err := m.db.Flush(); err != nil {
		return err
	}
	final := filepath.Join(m.cfg.Dir, segFileName(seg.table, seg.firstLSN))
	tmp := final + ".tmp"
	fsys := m.cfg.FS
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = writeSegmentFile(f, seg)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, final)
}

// readSegment decodes the file of the sealed segment covering span into
// scannable form, every row of it, dead or not.
func (m *Manager) readSegment(st *TableStore, span lsnSpan) (*Segment, error) {
	path := filepath.Join(m.cfg.Dir, segFileName(st.table, span.first))
	data, err := readFile(m.cfg.FS, path)
	if err != nil {
		return nil, err
	}
	table, rows, err := decodeSegmentFile(data, st.schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seg := rows.view(table)
	if table != st.table || seg.firstLSN != span.first || seg.lastLSN != span.last {
		return nil, badSeg("%s: holds %q lsn %d-%d, want %q lsn %d-%d", path, table, seg.firstLSN, seg.lastLSN, st.table, span.first, span.last)
	}
	return seg, nil
}

// loadSegments reloads persisted segments at attach time. Invalid
// files (partial writes, CRC mismatches, schema drift), files ahead of
// the WAL and any file breaking per-table LSN/ID contiguity are
// deleted; their rows come back through the WAL bootstrap instead.
func (m *Manager) loadSegments() error {
	fsys := m.cfg.FS
	if err := fsys.MkdirAll(m.cfg.Dir, 0o755); err != nil {
		return err
	}
	entries, err := fsys.ReadDir(m.cfg.Dir)
	if err != nil {
		return err
	}
	type loaded struct {
		path string
		seg  *Segment
	}
	byTable := make(map[string][]loaded)
	nextLSN := m.db.WAL().NextLSN()
	var firstErr error
	drop := func(path string, err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
		fsys.Remove(path)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") && !strings.HasSuffix(name, ".seg.tmp") {
			continue
		}
		path := filepath.Join(m.cfg.Dir, name)
		if strings.HasSuffix(name, ".seg.tmp") {
			// Leftover from a crash mid-write.
			drop(path, nil)
			continue
		}
		data, err := readFile(fsys, path)
		if err != nil {
			drop(path, err)
			continue
		}
		// First pass: peek at the table name with no schema check so
		// we can look the schema up, then decode for real.
		table, _, err := decodeSegmentFile(data, nil)
		if err != nil {
			drop(path, err)
			continue
		}
		tbl, ok := m.db.Table(table)
		if !ok {
			drop(path, badSeg("unknown table %q", table))
			continue
		}
		_, rows, err := decodeSegmentFile(data, tbl.Schema())
		if err != nil {
			drop(path, err)
			continue
		}
		if last := rows.lsns[rows.len()-1]; last >= nextLSN {
			// Written before its rows' commit records reached the log (a
			// crash between the two, or a directory copied mid-write):
			// the WAL will hand these LSNs and row ids out again.
			drop(path, badSeg("%s ends at lsn %d, the WAL at %d", path, last, nextLSN-1))
			continue
		}
		seg, err := encodeSegment(rows.view(table))
		if err != nil {
			drop(path, err)
			continue
		}
		byTable[table] = append(byTable[table], loaded{path: path, seg: seg})
	}
	for table, segs := range byTable {
		sort.Slice(segs, func(a, b int) bool { return segs[a].seg.firstLSN < segs[b].seg.firstLSN })
		st := m.store(table)
		if st == nil {
			continue
		}
		st.mu.Lock()
		var lastID storage.RowID
		var lastLSN uint64
		for i, l := range segs {
			seg := l.seg
			if seg.ids[0] != lastID+1 || (i > 0 && seg.firstLSN <= lastLSN) {
				// Contiguity broken — a table's row ids are handed out
				// without gaps, so a missing file shows here: drop this
				// and everything after; the WAL bootstrap recovers the
				// rows.
				for _, rest := range segs[i:] {
					drop(rest.path, badSeg("non-contiguous segment %s", rest.path))
				}
				break
			}
			st.segs = append(st.segs, seg)
			st.maxSealedID = seg.ids[seg.rows-1]
			if seg.lastLSN > st.maxSealedLSN {
				st.maxSealedLSN = seg.lastLSN
			}
			if seg.lastLSN > st.maxGrp {
				st.maxGrp = seg.lastLSN
			}
			lastID = seg.ids[seg.rows-1]
			lastLSN = seg.lastLSN
		}
		st.mu.Unlock()
	}
	return firstErr
}

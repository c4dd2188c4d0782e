package columnar

import (
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
// contiguity — is deleted and its rows are rebuilt from the WAL by
// the normal bootstrap path. The WAL stays the source of truth;
// segment files are a cache.

const segMagic = "EDBSEG1\n"

func segFileName(table string, firstLSN uint64) string {
	// Hex-encode the table name so arbitrary names are filesystem-safe.
	return fmt.Sprintf("%x-%016x.seg", table, firstLSN)
}

// encodeSegmentFile serializes a sealed segment. Layout:
//
//	magic | table | ncols (name, kind)* | nrows | id deltas |
//	lsn deltas | row values | crc32(everything before)
func encodeSegmentFile(seg *Segment) ([]byte, error) {
	buf := []byte(segMagic)
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
	// Row values, decoded back out of the columns. One reusable row
	// buffer: AppendBinary copies what it needs.
	r := seg.NewReader(nil)
	var b Batch
	row := make(storage.Row, len(seg.schema.Columns))
	for r.Next(&b) {
		for i := 0; i < b.Len; i++ {
			b.MaterializeRow(row, i)
			for _, v := range row {
				buf = val.AppendBinary(buf, v)
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
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
// are deleted at the next load.
func (m *Manager) persistSegment(seg *Segment) error {
	data, err := encodeSegmentFile(seg)
	if err != nil {
		return err
	}
	final := filepath.Join(m.cfg.Dir, segFileName(seg.table, seg.firstLSN))
	tmp := final + ".tmp"
	fsys := m.cfg.FS
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, final)
}

// loadSegments reloads persisted segments at attach time. Invalid
// files (partial writes, CRC mismatches, schema drift) and any file
// breaking per-table LSN/ID contiguity are deleted; their rows come
// back through the WAL bootstrap instead.
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
		seg, err := encodeSegment(rows.view(table), 0, rows.len())
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
			if seg.ids[0] <= lastID || (i > 0 && seg.firstLSN <= lastLSN) {
				// Contiguity broken: drop this and everything after;
				// the WAL bootstrap recovers the rows.
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

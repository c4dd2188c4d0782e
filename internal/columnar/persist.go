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

// A segment file is one cut: the rows a cut took from its table's id
// range [lo, hi), as the row store keeps them — ids and packed row
// images, each value in the WAL's binary value encoding — plus a
// whole-file CRC. Attach hands the images to the replayed table
// (storage.Table.Evict) as the cut did, after encoding them with
// encodeSegment, so the on-disk format can never drift from the
// in-memory one, and the range is not cut again. A file that fails any
// check — magic, CRC, schema fingerprint, an id the table never issued
// — is deleted, and its range cut again from the rows. The WAL stays
// the source of truth, and a file is read only at restart.

const segMagic = "EDBSEG2\n"

func segFileName(table string, lo storage.RowID) string {
	// Hex-encode the table name so arbitrary names are filesystem-safe.
	return fmt.Sprintf("%x-%016x.seg", table, lo)
}

// writeSegmentFile serializes a cut of table to w. Layout:
//
//	magic | table | ncols (name, kind)* | lo | hi | nrows |
//	id deltas (the first from lo) | row images | crc32(everything before)
//
// It streams: the file is never whole in memory, so writing one costs a
// write buffer, not a copy of the cut.
func writeSegmentFile(w io.Writer, table string, schema *storage.Schema, c *cut) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	buf := []byte(segMagic)
	buf = appendStr(buf, table)
	buf = binary.AppendUvarint(buf, uint64(len(schema.Columns)))
	for _, col := range schema.Columns {
		buf = appendStr(buf, col.Name)
		buf = append(buf, byte(col.Kind))
	}
	buf = binary.AppendUvarint(buf, uint64(c.lo))
	buf = binary.AppendUvarint(buf, uint64(c.hi))
	buf = binary.AppendUvarint(buf, uint64(len(c.ids)))
	prev := c.lo
	for _, id := range c.ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	bw.Write(buf) // bw keeps the first error for Flush to report
	for _, img := range c.imgs {
		bw.WriteString(img)
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

// decodeSegmentFile parses and validates a segment file, returning the
// cut it holds, whose images are parts of one copy of data. The schema
// fingerprint (column names and kinds, in order) must match the live
// schema exactly. With a nil schema it only checks the file's integrity
// and returns the table name, which is how the caller finds the schema.
func decodeSegmentFile(data []byte, schema *storage.Schema) (table string, c *cut, err error) {
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
	var head [3]uint64 // lo, hi, nrows
	for i := range head {
		if head[i], pos, err = readUvarint(body, pos); err != nil {
			return "", nil, err
		}
	}
	lo, hi, nrows := head[0], head[1], head[2]
	if lo == 0 || hi <= lo || nrows > hi-lo {
		return "", nil, badSeg("implausible range [%d, %d) of %d rows", lo, hi, nrows)
	}
	c = &cut{lo: storage.RowID(lo), hi: storage.RowID(hi), ids: make([]storage.RowID, nrows), imgs: make([]string, nrows)}
	prev := lo
	for i := range c.ids {
		var d uint64
		if d, pos, err = readUvarint(body, pos); err != nil {
			return "", nil, err
		}
		if prev += d; (i > 0 && d == 0) || prev >= hi {
			return "", nil, badSeg("row %d: id %d out of order or out of [%d, %d)", i, prev, lo, hi)
		}
		c.ids[i] = storage.RowID(prev)
	}
	imgs := string(body[pos:])
	for i := range c.imgs {
		end := 0
		for k := uint64(0); k < ncols; k++ {
			_, n, err := val.DecodeBinary(imgs[end:])
			if err != nil {
				return "", nil, badSeg("row %d: %v", i, err)
			}
			end += n
		}
		c.imgs[i], imgs = imgs[:end], imgs[end:]
	}
	if imgs != "" {
		return "", nil, badSeg("%d trailing bytes", len(imgs))
	}
	return table, c, nil
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

// persistSegment writes a cut of st's table to disk: temp file, fsync,
// atomic rename. A crash at any point leaves either no file or a
// complete one; partial temp files fail the CRC or magic check and are
// deleted at the next load. The WAL is flushed first: the commit
// records of the cut's rows may still be in its user-space buffer, and
// a file must never be ahead of the log that makes it recoverable.
func (m *Manager) persistSegment(st *TableStore, c *cut) error {
	if err := m.db.Flush(); err != nil {
		return err
	}
	final := filepath.Join(m.cfg.Dir, segFileName(st.table, c.lo))
	tmp := final + ".tmp"
	fsys := m.cfg.FS
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = writeSegmentFile(f, st.table, st.tbl.Schema(), c)
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

// loadSegments reloads persisted cuts at attach time and hands each to
// its table, which the WAL replay filled, as the cut did (install): the
// table takes the rows still live, or declines the segment. Invalid
// files (partial writes, CRC mismatches, schema drift), files naming an
// id the table never issued (ahead of the WAL) and files overlapping an
// earlier one are deleted; their ranges, like those of missing files,
// are left for the sealer to cut again.
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
		c    *cut
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
		_, c, err := decodeSegmentFile(data, tbl.Schema())
		if err != nil {
			drop(path, err)
			continue
		}
		if next := tbl.NextID(); c.hi > next {
			// Written before its rows' commit records reached the log (a
			// crash between the two, or a directory copied mid-write):
			// the table will hand these ids out again.
			drop(path, badSeg("%s ends at id %d, the table at %d", path, c.hi-1, next-1))
			continue
		}
		byTable[table] = append(byTable[table], loaded{path: path, c: c})
	}
	lsn := m.db.LastApplied()
	for table, cuts := range byTable {
		sort.Slice(cuts, func(a, b int) bool { return cuts[a].c.lo < cuts[b].c.lo })
		st := m.Table(table)
		st.sealMu.Lock()
		end := storage.RowID(1)
		for _, l := range cuts {
			if l.c.lo < end {
				drop(l.path, badSeg("%s overlaps the range before it", l.path))
				continue
			}
			if err := m.install(st, l.c); err != nil {
				drop(l.path, err)
				continue
			}
			st.adopt(l.c, lsn)
			end = l.c.hi
		}
		st.sealMu.Unlock()
	}
	return firstErr
}

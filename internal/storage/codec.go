package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eventdb/internal/val"
	"eventdb/internal/wal"
)

// WAL record types used by the storage engine.
const (
	recCommit      uint8 = 1
	recCreateTable uint8 = 2
	// recCreateIndex was a secondary-index definition. No daemon ever
	// wrote one; the kind stays reserved, and a log that holds one is
	// refused rather than replayed without its UNIQUE constraint.
	recCreateIndex uint8 = 3
)

// errIndexRecord refuses a WAL record of the reserved kind 3.
var errIndexRecord = errors.New("storage: WAL record kind 3 (secondary index) is not supported")

// DecodeCommitRecord decodes a WAL record if it is a commit; ok is false
// for DDL and foreign record types. Used by journal mining.
func DecodeCommitRecord(r wal.Record) (changes []Change, ok bool, err error) {
	if r.Type != recCommit {
		return nil, false, nil
	}
	_, changes, err = decodeCommit(r.Data)
	if err != nil {
		return nil, false, err
	}
	return changes, true, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(buf []byte) (string, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad string length")
	}
	if uint64(len(buf)-sz) < n {
		return "", 0, fmt.Errorf("short string")
	}
	return string(buf[sz : sz+int(n)]), sz + int(n), nil
}

func appendRow(dst []byte, r Row) []byte {
	if r == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r))+1)
	for _, v := range r {
		dst = val.AppendBinary(dst, v)
	}
	return dst
}

func decodeRow(buf []byte) (Row, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("bad row length")
	}
	if n == 0 {
		return nil, sz, nil
	}
	count := int(n - 1)
	pos := sz
	r := make(Row, count)
	for i := 0; i < count; i++ {
		v, vn, err := val.DecodeBinary(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		r[i] = v
		pos += vn
	}
	return r, pos, nil
}

// encodeCommit serializes a commit record: seq, change count, then each
// change as (kind, table, rowid, old row, new row).
func encodeCommit(dst []byte, seq uint64, changes []Change) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(changes)))
	for _, c := range changes {
		dst = append(dst, byte(c.Kind))
		dst = appendString(dst, c.Table)
		dst = binary.AppendUvarint(dst, uint64(c.ID))
		dst = appendRow(dst, c.Old)
		dst = appendRow(dst, c.New)
	}
	return dst
}

func decodeCommit(buf []byte) (seq uint64, changes []Change, err error) {
	pos := 0
	seq, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad seq")
	}
	pos += n
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad change count")
	}
	pos += n
	if cnt > uint64(len(buf)) {
		return 0, nil, fmt.Errorf("implausible change count %d", cnt)
	}
	changes = make([]Change, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		if pos >= len(buf) {
			return 0, nil, fmt.Errorf("truncated change %d", i)
		}
		var c Change
		c.Kind = ChangeKind(buf[pos])
		pos++
		c.Table, n, err = decodeString(buf[pos:])
		if err != nil {
			return 0, nil, err
		}
		pos += n
		id, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, nil, fmt.Errorf("bad rowid")
		}
		c.ID = RowID(id)
		pos += n
		c.Old, n, err = decodeRow(buf[pos:])
		if err != nil {
			return 0, nil, err
		}
		pos += n
		c.New, n, err = decodeRow(buf[pos:])
		if err != nil {
			return 0, nil, err
		}
		pos += n
		changes = append(changes, c)
	}
	return seq, changes, nil
}

// encodeSchema serializes a table definition for the WAL.
func encodeSchema(dst []byte, s *Schema) []byte {
	dst = appendString(dst, s.Name)
	dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Kind))
		if c.NotNull {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = val.AppendBinary(dst, c.Default)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.PrimaryKey)))
	for _, pk := range s.PrimaryKey {
		dst = appendString(dst, pk)
	}
	return dst
}

func decodeSchema(buf []byte) (*Schema, error) {
	pos := 0
	name, n, err := decodeString(buf)
	if err != nil {
		return nil, err
	}
	pos += n
	colCount, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("bad column count")
	}
	pos += n
	if colCount > uint64(len(buf)) {
		return nil, fmt.Errorf("implausible column count")
	}
	cols := make([]Column, 0, colCount)
	for i := uint64(0); i < colCount; i++ {
		cname, n, err := decodeString(buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("truncated column")
		}
		kind := val.Kind(buf[pos])
		pos++
		notNull := buf[pos] == 1
		pos++
		def, n, err := val.DecodeBinary(buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		cols = append(cols, Column{Name: cname, Kind: kind, NotNull: notNull, Default: def})
	}
	pkCount, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("bad pk count")
	}
	pos += n
	var pks []string
	for i := uint64(0); i < pkCount; i++ {
		pk, n, err := decodeString(buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		pks = append(pks, pk)
	}
	return NewSchema(name, cols, pks...)
}

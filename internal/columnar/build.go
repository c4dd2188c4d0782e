package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// encodeSegment seals the rows of a tail view (or of a slice of one)
// into an immutable segment, encoding each column straight from the
// view's raw vectors. Nothing of the view is retained: every vector is
// re-encoded or copied, so the tail's arrays can be collected once it
// moves on.
func encodeSegment(view *Segment) (*Segment, error) {
	n := view.rows
	if n <= 0 {
		return nil, fmt.Errorf("columnar: empty segment for table %q", view.table)
	}
	s := &Segment{
		table:    view.table,
		schema:   view.schema,
		rows:     n,
		firstLSN: view.lsns[0],
		lastLSN:  view.lsns[n-1],
		cols:     make([]column, len(view.cols)),
	}
	for ci, c := range view.cols {
		col, err := encodeColumn(&c.(*rawColumn).vec)
		if err != nil {
			return nil, fmt.Errorf("columnar: table %q column %q: %w", view.table, view.schema.Columns[ci].Name, err)
		}
		s.cols[ci] = col
		s.bytes += col.memBytes()
	}
	if s.first = view.ids[0]; view.ids[n-1]-s.first != storage.RowID(n-1) {
		s.ids = append(view.ids[:0:0], view.ids...)
		s.bytes += n * 8
	}
	return s, nil
}

func encodeColumn(v *Vector) (column, error) {
	nulls, z := packNulls(v.Null)
	switch v.Kind {
	case val.KindInt, val.KindTime:
		return encodeInts(v.Kind, v.I64, v.Null, nulls, z), nil
	case val.KindBool:
		return encodeBools(v.I64, v.Null, nulls, z), nil
	case val.KindFloat:
		return encodeFloats(v.F64, v.Null, nulls, z), nil
	case val.KindString:
		return encodeStrings(v.Code, v.Dict, v.Null, nulls, z), nil
	case val.KindBytes:
		return encodeBytes(v.Bytes, v.Null, nulls, z)
	default:
		return nil, fmt.Errorf("unsupported column kind %s", v.Kind)
	}
}

// packNulls turns a null vector into a validity bitmap (bit set =
// null; nil when there is none) and starts the column's zone map with
// the null count.
func packNulls(null []bool) ([]uint64, storage.Zone) {
	var bits []uint64
	var z storage.Zone
	for i, isNull := range null {
		if !isNull {
			continue
		}
		if bits == nil {
			bits = make([]uint64, (len(null)+63)/64)
		}
		bits[i/64] |= 1 << uint(i%64)
		z.Nulls++
	}
	return bits, z
}

// encodeInts frames an int64-backed vector batch by batch (see
// intColumn): a pass for each batch's bounds, which size the data
// exactly, then one for the offsets.
func encodeInts(k val.Kind, vals []int64, null []bool, nulls []uint64, z storage.Zone) *intColumn {
	c := &intColumn{k: k, rows: len(vals), nulls: nulls, frames: make([]intFrame, 0, (len(vals)+BatchSize-1)/BatchSize)}
	var lo, hi int64
	size := 0
	for start := 0; start < len(vals); start += BatchSize {
		end := min(start+BatchSize, len(vals))
		f, seen := intFrame{}, false
		for i, v := range vals[start:end] {
			if !null[start+i] {
				if !seen {
					f, seen = intFrame{v, v}, true
				}
				f = intFrame{min(f.lo, v), max(f.hi, v)}
			}
		}
		if seen {
			if !z.OK {
				lo, hi, z.OK = f.lo, f.hi, true
			}
			lo, hi = min(lo, f.lo), max(hi, f.hi)
		}
		c.frames = append(c.frames, f)
		size += f.width() * (end - start)
	}
	c.data = make([]byte, 0, size)
	var word [8]byte
	for i, v := range vals {
		f := c.frames[i/BatchSize]
		if null[i] {
			v = f.lo
		}
		binary.LittleEndian.PutUint64(word[:], uint64(v)-uint64(f.lo))
		c.data = append(c.data, word[:f.width()]...)
	}
	if z.OK {
		z.Min, z.Max = c.value(lo), c.value(hi)
	}
	c.z = z
	return c
}

func encodeBools(vals []int64, null []bool, nulls []uint64, z storage.Zone) *boolColumn {
	c := &boolColumn{bits: make([]uint64, (len(vals)+63)/64), rows: len(vals), nulls: nulls}
	var anyTrue, anyFalse bool
	for i, b := range vals {
		switch {
		case null[i]:
		case b != 0:
			c.bits[i/64] |= 1 << uint(i%64)
			anyTrue = true
		default:
			anyFalse = true
		}
	}
	if anyTrue || anyFalse {
		z.Min, z.Max, z.OK = val.Bool(!anyFalse), val.Bool(anyTrue), true
	}
	c.z = z
	return c
}

func encodeFloats(vals []float64, null []bool, nulls []uint64, z storage.Zone) *floatColumn {
	c := &floatColumn{vals: append([]float64(nil), vals...), nulls: nulls}
	var lo, hi float64
	for i, f := range vals {
		if null[i] {
			continue
		}
		if math.IsNaN(f) {
			c.z = storage.Zone{Nulls: z.Nulls}
			return c
		}
		if !z.OK || f < lo {
			lo = f
		}
		if !z.OK || f > hi {
			hi = f
		}
		z.OK = true
	}
	if z.OK {
		z.Min, z.Max = val.Float(lo), val.Float(hi)
	}
	c.z = z
	return c
}

// encodeStrings re-codes the range against a dictionary of its own,
// in first-appearance order: the tail's dictionary also covers rows
// outside the range.
func encodeStrings(codes []uint32, dict []string, null []bool, nulls []uint64, z storage.Zone) *strColumn {
	c := &strColumn{codes: make([]uint32, len(codes)), nulls: nulls}
	recode := make([]int64, len(dict))
	for i := range recode {
		recode[i] = -1
	}
	for i, old := range codes {
		if null[i] {
			continue
		}
		if recode[old] < 0 {
			recode[old] = int64(len(c.dict))
			s := dict[old]
			c.dict = append(c.dict, s)
			if !z.OK {
				z.Min, z.Max, z.OK = val.String(s), val.String(s), true
			} else if lo, _ := z.Min.AsString(); s < lo {
				z.Min = val.String(s)
			} else if hi, _ := z.Max.AsString(); s > hi {
				z.Max = val.String(s)
			}
		}
		c.codes[i] = uint32(recode[old])
	}
	c.z = z
	return c
}

func encodeBytes(vals [][]byte, null []bool, nulls []uint64, z storage.Zone) (*bytesColumn, error) {
	c := &bytesColumn{offs: make([]uint32, len(vals)+1), nulls: nulls}
	var lo, hi []byte
	for i, b := range vals {
		if !null[i] {
			if len(c.blob)+len(b) > math.MaxUint32 {
				return nil, fmt.Errorf("blob overflow")
			}
			c.blob = append(c.blob, b...)
			if !z.OK || bytes.Compare(b, lo) < 0 {
				lo = b
			}
			if !z.OK || bytes.Compare(b, hi) > 0 {
				hi = b
			}
			z.OK = true
		}
		c.offs[i+1] = uint32(len(c.blob))
	}
	if z.OK {
		z.Min, z.Max = val.Bytes(lo), val.Bytes(hi)
	}
	c.z = z
	return c, nil
}

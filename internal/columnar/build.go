package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// colBuilder gathers one column of a cut's rows in the raw vector a
// Vector hands to the kernels, for encodeColumn.
type colBuilder struct {
	vec    Vector            // Dict is the column's own dictionary
	codeOf map[string]uint32 // string columns: value → dictionary code
}

// newColBuilder returns a builder for rows values of kind k.
func newColBuilder(k val.Kind, rows int) colBuilder {
	c := colBuilder{vec: Vector{Kind: k, Null: make([]bool, 0, rows)}}
	switch k {
	case val.KindFloat:
		c.vec.F64 = make([]float64, 0, rows)
	case val.KindString:
		c.vec.Code = make([]uint32, 0, rows)
		c.codeOf = make(map[string]uint32)
	case val.KindBytes:
		c.vec.Bytes = make([][]byte, 0, rows)
	default:
		c.vec.I64 = make([]int64, 0, rows)
	}
	return c
}

// add appends one value of the column's kind, or NULL. A string is
// copied into the dictionary: it is part of an image.
func (c *colBuilder) add(v val.Value) {
	vec := &c.vec
	null := v.IsNull()
	vec.Null = append(vec.Null, null)
	switch vec.Kind {
	case val.KindInt:
		n, _ := v.AsInt()
		vec.I64 = append(vec.I64, n)
	case val.KindTime:
		var n int64
		if !null {
			ts, _ := v.AsTime()
			n = ts.UnixNano()
		}
		vec.I64 = append(vec.I64, n)
	case val.KindBool:
		var n int64
		if b, _ := v.AsBool(); b {
			n = 1
		}
		vec.I64 = append(vec.I64, n)
	case val.KindFloat:
		f, _ := v.AsFloat()
		vec.F64 = append(vec.F64, f)
	case val.KindString:
		var code uint32
		if !null {
			s, _ := v.AsString()
			var seen bool
			if code, seen = c.codeOf[s]; !seen {
				s = strings.Clone(s)
				code = uint32(len(vec.Dict))
				vec.Dict = append(vec.Dict, s)
				c.codeOf[s] = code
			}
		}
		vec.Code = append(vec.Code, code)
	case val.KindBytes:
		b, _ := v.AsBytes()
		vec.Bytes = append(vec.Bytes, b) // encodeBytes copies it
	}
}

// encodeSegment seals the rows of ids (ascending), one packed image
// each, into an immutable segment of table's history. The images are
// decoded straight into one raw vector per column, so no row is ever
// boxed, and the segment keeps nothing of them: a string enters its
// column's dictionary as a copy, so that a segment pins none of the
// images it was built from, which its table lets go of once it takes
// the segment. (The row store holds valid rows; the checks are for
// images read from files.)
func encodeSegment(table string, schema *storage.Schema, ids []storage.RowID, imgs []string) (*Segment, error) {
	n := len(ids)
	if n == 0 {
		return nil, fmt.Errorf("columnar: empty segment for table %q", table)
	}
	b := make([]colBuilder, len(schema.Columns))
	for ci, sc := range schema.Columns {
		b[ci] = newColBuilder(sc.Kind, n)
	}
	for i, img := range imgs {
		for ci, sc := range schema.Columns {
			v, w, err := val.DecodeBinary(img)
			if k := v.Kind(); err == nil && k != val.KindNull && k != sc.Kind {
				err = fmt.Errorf("kind %s in %s column", k, sc.Kind)
			}
			if err != nil {
				return nil, fmt.Errorf("columnar: table %q row %d column %q: %w", table, ids[i], sc.Name, err)
			}
			b[ci].add(v)
			img = img[w:]
		}
		if img != "" {
			return nil, fmt.Errorf("columnar: table %q row %d: %d bytes past its values", table, ids[i], len(img))
		}
	}
	s := &Segment{table: table, schema: schema, rows: n, cols: make([]column, len(b))}
	for ci := range b {
		col, err := encodeColumn(&b[ci].vec)
		if err != nil {
			return nil, fmt.Errorf("columnar: table %q column %q: %w", table, schema.Columns[ci].Name, err)
		}
		s.cols[ci] = col
		s.bytes += col.memBytes()
	}
	if s.first = ids[0]; ids[n-1]-s.first != storage.RowID(n-1) {
		s.ids = append([]storage.RowID(nil), ids...)
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
		return encodeStrings(v.Code, v.Dict, nulls, z), nil
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
	c := &floatColumn{vals: vals, nulls: nulls}
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

// encodeStrings keeps a colBuilder's codes and dictionary, which holds
// exactly the column's non-NULL values, in first-appearance order.
func encodeStrings(codes []uint32, dict []string, nulls []uint64, z storage.Zone) *strColumn {
	for i, s := range dict {
		if i == 0 {
			z.Min, z.Max, z.OK = val.String(s), val.String(s), true
		} else if lo, _ := z.Min.AsString(); s < lo {
			z.Min = val.String(s)
		} else if hi, _ := z.Max.AsString(); s > hi {
			z.Max = val.String(s)
		}
	}
	return &strColumn{codes: codes, dict: dict, nulls: nulls, z: z}
}

func encodeBytes(vals [][]byte, null []bool, nulls []uint64, z storage.Zone) (*bytesColumn, error) {
	c := &bytesColumn{offs: make([]uint32, len(vals)+1), nulls: nulls}
	lo, hi := -1, -1 // rows of the zone's bounds
	for i, b := range vals {
		if !null[i] {
			if len(c.blob)+len(b) > math.MaxUint32 {
				return nil, fmt.Errorf("blob overflow")
			}
			c.blob = append(c.blob, b...)
			if lo < 0 || bytes.Compare(b, vals[lo]) < 0 {
				lo = i
			}
			if hi < 0 || bytes.Compare(b, vals[hi]) > 0 {
				hi = i
			}
		}
		c.offs[i+1] = uint32(len(c.blob))
	}
	if lo >= 0 { // the bounds are the blob's, not the images'
		z.Min, z.Max, z.OK = c.at(lo), c.at(hi), true
	}
	c.z = z
	return c, nil
}

package columnar

import (
	"fmt"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// tail is the sealer's staging: every committed insert of a table the
// sealer has not yet encoded, appended to one raw vector per column
// (the layout a Vector hands to the kernels), so that sealing encodes
// the vectors without ever boxing a row. No scan reads it: the rows are
// the table's, hot, until their segment takes them.
//
// The tail is append-only and guarded by the owning TableStore's mutex.
// The sealer does not hold that lock while it encodes: it captures the
// vectors' slice headers (view), and since an append only writes past
// every captured length — or reallocates, leaving the old array intact
// — what a captured header shows never changes.
type tail struct {
	schema *storage.Schema

	ids  []storage.RowID // strictly increasing
	lsns []uint64        // commit LSN per row; zero on a volatile database
	grps []uint64        // seal-group key per row: LSN when durable, commit seq otherwise
	cols []tailCol
}

// tailCol is one column of the tail.
type tailCol struct {
	vec    Vector            // full-length vectors; Dict is this tail's own dictionary
	codeOf map[string]uint32 // string columns: value → dictionary code
}

func newTail(schema *storage.Schema) *tail {
	t := &tail{schema: schema, cols: make([]tailCol, len(schema.Columns))}
	for ci, sc := range schema.Columns {
		t.cols[ci].vec.Kind = sc.Kind
		if sc.Kind == val.KindString {
			t.cols[ci].codeOf = make(map[string]uint32)
		}
	}
	return t
}

func (t *tail) len() int { return len(t.ids) }

// append adds one committed insert. The row is checked against the
// schema before any vector grows, so a rejected row leaves the vectors
// aligned. (The storage layer validates rows before they commit; the
// check is for rows decoded from files.)
func (t *tail) append(id storage.RowID, lsn, grp uint64, row storage.Row) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("columnar: table %q: row has %d values, want %d", t.schema.Name, len(row), len(t.cols))
	}
	for ci := range t.cols {
		if k := row[ci].Kind(); k != val.KindNull && k != t.cols[ci].vec.Kind {
			return fmt.Errorf("columnar: table %q column %q: kind %s in %s column",
				t.schema.Name, t.schema.Columns[ci].Name, k, t.cols[ci].vec.Kind)
		}
	}
	t.ids = append(t.ids, id)
	t.lsns = append(t.lsns, lsn)
	t.grps = append(t.grps, grp)
	for ci := range t.cols {
		t.cols[ci].append(row[ci])
	}
	return nil
}

// append adds one value of the column's kind, or NULL.
func (c *tailCol) append(v val.Value) {
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
				code = uint32(len(vec.Dict))
				vec.Dict = append(vec.Dict, s)
				c.codeOf[s] = code
			}
		}
		vec.Code = append(vec.Code, code)
	case val.KindBytes:
		b, _ := v.AsBytes()
		vec.Bytes = append(vec.Bytes, b)
	}
}

// view returns the tail's rows as of now in Segment form: raw columns
// whose vectors are the live ones cut at the current length. It reads
// as a sealed segment does — NewReader, batches — and is immutable
// however the tail grows. The view of an empty tail is nil.
func (t *tail) view(table string) *Segment {
	n := t.len()
	if n == 0 {
		return nil
	}
	raw := make([]rawColumn, len(t.cols))
	s := &Segment{
		table:    table,
		schema:   t.schema,
		rows:     n,
		ids:      t.ids,
		lsns:     t.lsns,
		firstLSN: t.lsns[0],
		lastLSN:  t.lsns[n-1],
		cols:     make([]column, len(t.cols)),
	}
	for ci := range t.cols {
		raw[ci] = rawColumn{vec: t.cols[ci].vec}
		s.cols[ci] = &raw[ci]
	}
	return s
}

// slice returns rows [from, to) of a tail view as a Segment of their
// own: what a seal is about to turn into a file and a sealed segment.
func (v *Segment) slice(from, to int) *Segment {
	s := &Segment{
		table:    v.table,
		schema:   v.schema,
		rows:     to - from,
		ids:      v.ids[from:to],
		lsns:     v.lsns[from:to],
		firstLSN: v.lsns[from],
		lastLSN:  v.lsns[to-1],
		cols:     make([]column, len(v.cols)),
	}
	for ci, c := range v.cols {
		s.cols[ci] = &rawColumn{vec: c.(*rawColumn).vec.window(from, to)}
	}
	return s
}

// sealCuts returns the ends of the row ranges to seal, in order: each
// takes target rows, extended so a commit's inserts are never split
// across a seal boundary (a restart skips the WAL's inserts up to
// maxSealedLSN, so a commit split by a lost file would lose its later
// rows; and a scan snapshot finds a commit's inserts in one segment),
// and further ranges follow while at least target rows remain. A tail
// shorter than target is sealed whole.
func (t *tail) sealCuts(target int) []int {
	var cuts []int
	n := t.len()
	for pos := 0; pos < n; {
		cut := n
		if n-pos > target {
			cut = pos + target
		}
		for cut < n && t.grps[cut] == t.grps[cut-1] {
			cut++
		}
		cuts = append(cuts, cut)
		pos = cut
		if n-pos < target {
			break
		}
	}
	return cuts
}

// suffix returns a fresh tail holding rows [from, len): what stays
// unsealed after a seal took the rows before from. The store is locked
// while it runs, so the vectors are copied as ranges — no value is
// boxed — and the dictionary an append would have built along the way
// is rebuilt per column, not per row.
func (t *tail) suffix(from int) *tail {
	nt := newTail(t.schema)
	n := t.len()
	if from >= n {
		return nt
	}
	nt.ids = append(nt.ids, t.ids[from:]...)
	nt.lsns = append(nt.lsns, t.lsns[from:]...)
	nt.grps = append(nt.grps, t.grps[from:]...)
	for ci := range t.cols {
		nt.cols[ci].appendRange(&t.cols[ci].vec, from, n)
	}
	return nt
}

// appendRange adds rows [from, to) of src, a vector of the column's
// kind, leaving the column as appending them one by one would.
func (c *tailCol) appendRange(src *Vector, from, to int) {
	vec := &c.vec
	null := src.Null[from:to]
	vec.Null = append(vec.Null, null...)
	switch vec.Kind {
	case val.KindInt, val.KindTime, val.KindBool:
		vec.I64 = append(vec.I64, src.I64[from:to]...)
	case val.KindFloat:
		vec.F64 = append(vec.F64, src.F64[from:to]...)
	case val.KindString:
		// Codes are re-assigned in first-appearance order: src's
		// dictionary also covers the rows before from.
		recode := make([]int64, len(src.Dict))
		for i := range recode {
			recode[i] = -1
		}
		for i, old := range src.Code[from:to] {
			var code uint32
			if !null[i] {
				if recode[old] < 0 {
					s := src.Dict[old]
					recode[old] = int64(len(vec.Dict))
					vec.Dict = append(vec.Dict, s)
					c.codeOf[s] = uint32(recode[old])
				}
				code = uint32(recode[old])
			}
			vec.Code = append(vec.Code, code)
		}
	case val.KindBytes:
		vec.Bytes = append(vec.Bytes, src.Bytes[from:to]...)
	}
}

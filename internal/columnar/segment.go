// Package columnar implements the engine's columnar event-history
// store: immutable sealed segments holding table history as typed
// column vectors — dictionary-encoded strings, delta-encoded
// int64/timestamps, validity bitmaps — with per-segment zone maps
// (min/max/null-count per column) for scan pruning.
//
// Committed inserts land in an append-only columnar tail (tail.go): the
// same typed vectors, unencoded, with a running zone map per column. A
// background sealer encodes the tail's vectors into segments (see
// store.go, build.go); the query processor runs one vectorized
// filter+aggregate loop over segments and tail alike (filter.go,
// internal/query), and journal mining serves sealed insert history
// from segments instead of replaying the WAL. Memory holds what a scan
// can return: a segment whose rows are all dead leaves it and lives on
// as its file, which only mining reads (store.go, persist.go).
package columnar

import (
	"encoding/binary"
	"math"
	"time"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// BatchSize is the number of rows decoded per vector batch. 1k rows
// keeps every working vector comfortably inside L1/L2 while amortizing
// per-batch dispatch over enough rows that the per-row cost is a few
// nanoseconds.
const BatchSize = 1024

// Zone is a column's zone map: the segment-level summary consulted
// before any row of the column is decoded.
type Zone struct {
	// Min and Max bound the column's non-null values. Only meaningful
	// when OK; a column of all nulls (or containing NaN, which defeats
	// ordering) has OK=false and is never used for pruning.
	Min, Max val.Value
	OK       bool
	// Nulls counts null rows in the column.
	Nulls int
}

// Segment is one immutable sealed batch of table history: rows
// [FirstID..LastID] committed at LSNs [FirstLSN..LastLSN], stored
// column-wise. All fields are frozen at seal time except the dead
// bitmap, which the owning TableStore maintains under its lock as
// later commits update or delete sealed rows.
type Segment struct {
	table  string
	schema *storage.Schema
	rows   int
	// sealedRows is how many rows were sealed over the segment's LSN
	// span — what its file holds. It exceeds rows once the dead ones
	// have been dropped from memory (liveOnly).
	sealedRows int

	// ids holds each row's RowID, strictly increasing (IDs are
	// allocated monotonically and commits deliver in order), so row
	// position is a binary search away.
	ids []storage.RowID
	// lsns holds each row's commit LSN, non-decreasing. Zero throughout
	// on a volatile database.
	lsns []uint64

	firstLSN, lastLSN uint64

	cols []column

	// dead marks rows superseded after sealing (updated or deleted in
	// the row store). Guarded by the owning TableStore's mutex; nil
	// until the first mark. Scans skip dead rows; history mining
	// (REPLAY) deliberately ignores the bitmap — the insert happened
	// regardless of the row's later fate.
	dead      []uint64
	deadCount int

	bytes int // approximate in-memory footprint
}

// Rows returns the number of rows sealed in the segment.
func (s *Segment) Rows() int { return s.rows }

// Bounds returns the segment's RowID and LSN coverage.
func (s *Segment) Bounds() (firstID, lastID storage.RowID, firstLSN, lastLSN uint64) {
	return s.ids[0], s.ids[s.rows-1], s.firstLSN, s.lastLSN
}

// RowID returns the RowID of row i.
func (s *Segment) RowID(i int) storage.RowID { return s.ids[i] }

// find returns the position of id in the segment, or -1.
func (s *Segment) find(id storage.RowID) int { return findID(s.ids, id) }

// markDead flags row position i as superseded. Caller holds the
// TableStore lock.
func (s *Segment) markDead(i int) {
	if s.dead == nil {
		s.dead = make([]uint64, (s.rows+63)/64)
	}
	w, b := i/64, uint(i%64)
	if s.dead[w]&(1<<b) == 0 {
		s.dead[w] |= 1 << b
		s.deadCount++
	}
}

// deadBit reports whether row i is marked dead in the given bitmap
// (nil = nothing dead).
func deadBit(bits []uint64, i int) bool {
	if bits == nil {
		return false
	}
	return bits[i/64]&(1<<uint(i%64)) != 0
}

// Zone returns the zone map for schema column ci.
func (s *Segment) Zone(ci int) Zone { return s.cols[ci].zone() }

// column is one column's storage: encoded in a sealed segment, raw in
// a view of the tail.
type column interface {
	zone() Zone
	// newCursor returns a decoder over the column that fills dst,
	// allocating whatever buffers dst needs.
	newCursor(dst *Vector) cursor
	// memBytes approximates the column's in-memory footprint.
	memBytes() int
}

// cursor decodes a column one batch at a time.
type cursor interface {
	// read decodes the n values starting at row into dst. row is a
	// multiple of BatchSize and n at most BatchSize; dst's buffers are
	// reused across calls. Sequential batches are the fast case, but
	// any batch may follow any other.
	read(dst *Vector, row, n int)
}

// noNulls is the Null vector of every column without a null: shared
// and never written.
var noNulls [BatchSize]bool

// nullBuffer returns the Null vector for a cursor over a column with
// the given validity bitmap.
func nullBuffer(nulls []uint64) []bool {
	if nulls == nil {
		return noNulls[:]
	}
	return make([]bool, BatchSize)
}

// fillNulls expands rows [row, row+n) of a validity bitmap into dst,
// which came from nullBuffer(nulls).
func fillNulls(dst []bool, nulls []uint64, row, n int) {
	if nulls == nil {
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = deadBit(nulls, row+i)
	}
}

// Vector is a decoded batch of one column. Exactly one payload slice
// is populated, per Kind:
//
//	int, time, bool → I64 (time as Unix nanoseconds, bool as 0/1)
//	float           → F64
//	string          → Code (+ Dict, the segment-wide dictionary)
//	bytes           → Bytes (sub-slices of the segment blob; read-only)
//
// Null[i] reports row nullness and is always populated. Vectors are
// read-only: a payload slice may alias the column's own storage.
type Vector struct {
	Kind  val.Kind
	I64   []int64
	F64   []float64
	Code  []uint32
	Dict  []string
	Bytes [][]byte
	Null  []bool
}

// Value boxes row i of the vector back into a val.Value. This is the
// materialization path for matched rows only — the filter and
// aggregate kernels never box.
func (v *Vector) Value(i int) val.Value {
	if v.Null[i] {
		return val.Null
	}
	switch v.Kind {
	case val.KindInt:
		return val.Int(v.I64[i])
	case val.KindFloat:
		return val.Float(v.F64[i])
	case val.KindString:
		return val.String(v.Dict[v.Code[i]])
	case val.KindBool:
		return val.Bool(v.I64[i] != 0)
	case val.KindTime:
		return val.Time(time.Unix(0, v.I64[i]).UTC())
	case val.KindBytes:
		return val.Bytes(v.Bytes[i])
	default:
		return val.Null
	}
}

// Batch is one decoded slab of segment rows: rows [Start, Start+Len)
// with Vecs[ci] populated for every requested schema column (nil
// otherwise).
type Batch struct {
	Seg   *Segment
	Start int
	Len   int
	Vecs  []*Vector
}

// Reader streams a segment's rows as batches, decoding only the
// requested columns. Buffers are allocated once per column and reused,
// so a full-segment scan costs a handful of allocations total, none
// per row.
type Reader struct {
	seg     *Segment
	eager   []int    // columns every Next decodes
	cursors []cursor // per schema column, nil until first decoded
	vecs    []Vector
	pos     int
}

// NewReader creates a reader over the segment whose Next decodes the
// columns where need[ci] is true (need == nil decodes every column).
// Further columns can be decoded per batch with Fill.
func (s *Segment) NewReader(need []bool) *Reader {
	r := &Reader{
		seg:     s,
		eager:   make([]int, 0, len(s.cols)),
		cursors: make([]cursor, len(s.cols)),
		vecs:    make([]Vector, len(s.cols)),
	}
	for ci, c := range s.cols {
		if need == nil || need[ci] {
			r.cursors[ci] = c.newCursor(&r.vecs[ci])
			r.eager = append(r.eager, ci)
		}
	}
	return r
}

// Next decodes the next batch into b, returning false at end of
// segment. b's vector pointers alias the reader's reusable buffers
// and are only valid until the following Next call.
func (r *Reader) Next(b *Batch) bool {
	if r.pos >= r.seg.rows {
		return false
	}
	n := r.seg.rows - r.pos
	if n > BatchSize {
		n = BatchSize
	}
	if b.Vecs == nil {
		b.Vecs = make([]*Vector, len(r.cursors))
	}
	for ci := range b.Vecs {
		b.Vecs[ci] = nil
	}
	for _, ci := range r.eager {
		r.cursors[ci].read(&r.vecs[ci], r.pos, n)
		b.Vecs[ci] = &r.vecs[ci]
	}
	b.Seg = r.seg
	b.Start = r.pos
	b.Len = n
	r.pos += n
	return true
}

// Fill decodes into the current batch b the columns where cols[ci] is
// true and that Next did not decode. A scan decodes its predicate
// columns with Next and calls Fill only for batches with a matching
// row, so the other columns of a batch without one are never decoded.
func (r *Reader) Fill(b *Batch, cols []bool) {
	for ci, want := range cols {
		if !want || b.Vecs[ci] != nil {
			continue
		}
		if r.cursors[ci] == nil {
			r.cursors[ci] = r.seg.cols[ci].newCursor(&r.vecs[ci])
		}
		r.cursors[ci].read(&r.vecs[ci], b.Start, b.Len)
		b.Vecs[ci] = &r.vecs[ci]
	}
}

// MaterializeRow boxes batch row i into dst (a full-width
// storage.Row); columns that were not decoded stay Null. dst must
// have len == schema width.
func (b *Batch) MaterializeRow(dst storage.Row, i int) {
	for ci, v := range b.Vecs {
		if v == nil {
			dst[ci] = val.Null
			continue
		}
		dst[ci] = v.Value(i)
	}
}

// ---- column implementations ----

// intColumn stores int64-backed kinds (int, time-as-nanos) as a
// zigzag-varint delta stream: each value is encoded as the delta from
// its predecessor, which collapses timestamps and monotone counters
// to one or two bytes per row. Nulls encode as delta 0 with the
// validity bit cleared.
type intColumn struct {
	k     val.Kind
	data  []byte
	rows  int
	nulls []uint64 // validity bitmap (bit set = null); nil when none
	z     Zone
	// marks[b] is the decoder state at row b*BatchSize, so a cursor can
	// start at any batch without decoding the ones before it.
	marks []intMark
}

// intMark is an intColumn decoder state: the offset of a row's delta
// in data and the value of the row before it.
type intMark struct {
	off  int
	prev int64
}

func (c *intColumn) zone() Zone    { return c.z }
func (c *intColumn) memBytes() int { return len(c.data) + len(c.nulls)*8 + len(c.marks)*16 }

type intCursor struct {
	c   *intColumn
	row int     // the next row in sequence
	at  intMark // decoder state at row
}

func (c *intColumn) newCursor(dst *Vector) cursor {
	dst.Kind = c.k
	dst.I64 = make([]int64, BatchSize)
	dst.Null = nullBuffer(c.nulls)
	return &intCursor{c: c}
}

func (cur *intCursor) read(dst *Vector, row, n int) {
	if row != cur.row {
		cur.at = cur.c.marks[row/BatchSize]
	}
	data := cur.c.data
	out := dst.I64[:n]
	off, prev := cur.at.off, cur.at.prev
	for i := range out {
		d, w := binary.Varint(data[off:])
		off += w
		prev += d
		out[i] = prev
	}
	cur.at = intMark{off: off, prev: prev}
	cur.row = row + n
	fillNulls(dst.Null, cur.c.nulls, row, n)
}

// floatColumn stores float64 values raw (8 bytes each); deltas do not
// compress IEEE doubles usefully.
type floatColumn struct {
	vals  []float64
	nulls []uint64
	z     Zone
}

func (c *floatColumn) zone() Zone    { return c.z }
func (c *floatColumn) memBytes() int { return len(c.vals)*8 + len(c.nulls)*8 }

func (c *floatColumn) newCursor(dst *Vector) cursor {
	dst.Kind = val.KindFloat
	dst.Null = nullBuffer(c.nulls)
	return c
}

// read hands out a sub-slice of the stored values: they are immutable
// and already in vector form.
func (c *floatColumn) read(dst *Vector, row, n int) {
	dst.F64 = c.vals[row : row+n]
	fillNulls(dst.Null, c.nulls, row, n)
}

// boolColumn stores values and validity as bitmaps: one bit per row
// each way.
type boolColumn struct {
	bits  []uint64
	rows  int
	nulls []uint64
	z     Zone
}

func (c *boolColumn) zone() Zone    { return c.z }
func (c *boolColumn) memBytes() int { return len(c.bits)*8 + len(c.nulls)*8 }

func (c *boolColumn) newCursor(dst *Vector) cursor {
	dst.Kind = val.KindBool
	dst.I64 = make([]int64, BatchSize)
	dst.Null = nullBuffer(c.nulls)
	return c
}

func (c *boolColumn) read(dst *Vector, row, n int) {
	out := dst.I64[:n]
	for i := range out {
		if deadBit(c.bits, row+i) {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	fillNulls(dst.Null, c.nulls, row, n)
}

// strColumn dictionary-encodes strings: distinct values live once in
// dict (first-appearance order) and rows store uint32 codes. Equality
// filters against a literal become integer compares after one dict
// probe per segment.
type strColumn struct {
	dict  []string
	codes []uint32
	nulls []uint64
	z     Zone
}

func (c *strColumn) zone() Zone { return c.z }
func (c *strColumn) memBytes() int {
	n := len(c.codes)*4 + len(c.nulls)*8
	for _, s := range c.dict {
		n += len(s) + 16
	}
	return n
}

// code returns the dictionary code for s, or -1 if s is not in the
// segment. Used by filter kernels to turn string equality into code
// equality.
func (c *strColumn) code(s string) int {
	for i, d := range c.dict {
		if d == s {
			return i
		}
	}
	return -1
}

func (c *strColumn) newCursor(dst *Vector) cursor {
	dst.Kind = val.KindString
	dst.Dict = c.dict
	dst.Null = nullBuffer(c.nulls)
	return c
}

func (c *strColumn) read(dst *Vector, row, n int) {
	dst.Code = c.codes[row : row+n]
	fillNulls(dst.Null, c.nulls, row, n)
}

// bytesColumn stores variable-length blobs back to back with an
// offsets array; decoded vectors hand out sub-slices without copying.
type bytesColumn struct {
	offs  []uint32 // len rows+1
	blob  []byte
	nulls []uint64
	z     Zone
}

func (c *bytesColumn) zone() Zone    { return c.z }
func (c *bytesColumn) memBytes() int { return len(c.offs)*4 + len(c.blob) + len(c.nulls)*8 }

func (c *bytesColumn) newCursor(dst *Vector) cursor {
	dst.Kind = val.KindBytes
	dst.Bytes = make([][]byte, BatchSize)
	dst.Null = nullBuffer(c.nulls)
	return c
}

func (c *bytesColumn) read(dst *Vector, row, n int) {
	for i := 0; i < n; i++ {
		dst.Bytes[i] = c.blob[c.offs[row+i]:c.offs[row+i+1]]
	}
	fillNulls(dst.Null, c.nulls, row, n)
}

// rawColumn is an unencoded column: full-length vectors in exactly the
// layout a Vector hands to the kernels, so reading a batch is slicing.
// The tail stores its columns this way, and a snapshot's view of the
// tail is a Segment of rawColumns (see tail.go).
type rawColumn struct {
	vec Vector
	z   Zone
}

func (c *rawColumn) zone() Zone { return c.z }
func (c *rawColumn) memBytes() int {
	v := &c.vec
	return len(v.I64)*8 + len(v.F64)*8 + len(v.Code)*4 + len(v.Bytes)*24 + len(v.Null)
}

func (c *rawColumn) newCursor(dst *Vector) cursor {
	dst.Kind = c.vec.Kind
	dst.Dict = c.vec.Dict
	return c
}

func (c *rawColumn) read(dst *Vector, row, n int) {
	v := &c.vec
	switch v.Kind {
	case val.KindInt, val.KindTime, val.KindBool:
		dst.I64 = v.I64[row : row+n]
	case val.KindFloat:
		dst.F64 = v.F64[row : row+n]
	case val.KindString:
		dst.Code = v.Code[row : row+n]
	case val.KindBytes:
		dst.Bytes = v.Bytes[row : row+n]
	}
	dst.Null = v.Null[row : row+n]
}

// ---- zone-map pruning ----

// zoneExcludesEq reports whether the zone map proves no row of the
// column can equal v.
func zoneExcludesEq(z Zone, rows int, v val.Value) bool {
	if v.IsNull() {
		// field = NULL never matches any row (SQL), but that is the
		// filter's job; the zone map only prunes on values.
		return false
	}
	if z.Nulls == rows {
		return true // all null: no value can match
	}
	if !z.OK {
		return false
	}
	if c, err := val.Compare(v, z.Min); err == nil && c < 0 {
		return true
	}
	if c, err := val.Compare(v, z.Max); err == nil && c > 0 {
		return true
	}
	return false
}

// zoneExcludesRange reports whether the zone map proves no row can
// fall in [lo, hi] (either bound may be unbounded; open flags make a
// bound strict).
func zoneExcludesRange(z Zone, rows int, lo, hi val.Value, loOpen, hiOpen, loUnbounded, hiUnbounded bool) bool {
	if z.Nulls == rows {
		return true
	}
	if !z.OK {
		return false
	}
	if !loUnbounded && !lo.IsNull() {
		if c, err := val.Compare(z.Max, lo); err == nil && (c < 0 || (c == 0 && loOpen)) {
			return true
		}
	}
	if !hiUnbounded && !hi.IsNull() {
		if c, err := val.Compare(z.Min, hi); err == nil && (c > 0 || (c == 0 && hiOpen)) {
			return true
		}
	}
	return false
}

// isNaN reports whether v is a floating NaN (which defeats min/max
// ordering and therefore poisons a zone map).
func isNaN(v val.Value) bool {
	if v.Kind() != val.KindFloat {
		return false
	}
	f, _ := v.AsFloat()
	return math.IsNaN(f)
}

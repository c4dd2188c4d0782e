// Package columnar implements the engine's columnar event-history
// store: immutable sealed segments holding table history as typed
// column vectors — dictionary-encoded strings, frame-of-reference
// int64/timestamps, validity bitmaps — with per-segment zone maps
// (min/max/null-count per column) for scan pruning, and per-batch ones
// on int and time columns, whose frames are their zones.
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
	"math/bits"
	"time"

	"eventdb/internal/expr"
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
	// read decodes rows [row, row+n) of one batch into dst: at least
	// the values and nulls at the positions sel lists (a column already
	// in vector form hands out all n). What has to be decoded goes into
	// own's buffers, which the caller keeps from batch to batch and
	// segment to segment; what need not be may alias the column.
	read(dst, own *Vector, row, n int, sel []int32)
	// memBytes approximates the column's in-memory footprint.
	memBytes() int
}

// noNulls is the Null vector of every column without a null: shared
// and never written.
var noNulls [BatchSize]bool

// allRows selects every row of a batch.
var allRows = func() (sel [BatchSize]int32) {
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// grow returns *buf, a decode buffer of BatchSize, made on first use.
func grow[T any](buf *[]T) []T {
	if *buf == nil {
		*buf = make([]T, BatchSize)
	}
	return *buf
}

// nullsOf expands rows [row, row+n) of a validity bitmap, at sel, into
// a Null vector: the shared all-false one when there is no null.
func nullsOf(own *Vector, nulls []uint64, row, n int, sel []int32) []bool {
	if nulls == nil {
		return noNulls[:n]
	}
	out := grow(&own.Null)[:n]
	for _, i := range sel {
		out[i] = deadBit(nulls, row+int(i))
	}
	return out
}

// Vector is a decoded batch of one column. Exactly one payload slice
// is populated, per Kind:
//
//	int, time, bool → I64 (time as Unix nanoseconds, bool as 0/1)
//	float           → F64
//	string          → Code (+ Dict, the segment-wide dictionary)
//	bytes           → Bytes (sub-slices of the segment blob; read-only)
//
// Null[i] reports row nullness. Values and nulls are populated at the
// rows the batch was decoded for (see Reader.Fill); elsewhere they are
// left over from an earlier batch. Vectors are read-only: a payload
// slice may alias the column's own storage.
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

// Reader streams batches of rows, decoding only the requested columns
// into buffers it owns. One reader serves a whole scan — Reset points
// it at the next segment of the table and keeps the buffers — so a
// query allocates them once, not per segment, and none per row.
type Reader struct {
	seg  *Segment
	need []bool   // columns every Next decodes; nil: all
	vecs []Vector // what a batch's vectors point at
	own  []Vector // per column, the decode buffers behind vecs
	pos  int

	// Conjuncts every batch's zones must admit (Prune), and the batches
	// entered and skipped so far.
	eqs             []expr.EqPred
	ranges          []expr.RangePred
	batches, pruned int
}

// NewReader creates a reader over the segment whose Next decodes the
// columns where need[ci] is true (need == nil decodes every column).
// Further columns can be decoded per batch with Fill.
func (s *Segment) NewReader(need []bool) *Reader {
	r := new(Reader)
	r.Reuse(s, need)
	return r
}

// Reuse makes r what s.NewReader(need) returns — a reader over s, of
// any table, with no conjuncts and no batches counted — but keeps the
// decode buffers r already has, so a reader kept from query to query
// decodes every one into the same memory.
func (r *Reader) Reuse(s *Segment, need []bool) {
	r.vecs = append(r.vecs[:0], make([]Vector, len(s.cols))...)
	if len(r.own) < len(s.cols) {
		r.own = append(r.own, make([]Vector, len(s.cols)-len(r.own))...)
	}
	for ci, c := range s.schema.Columns {
		r.vecs[ci].Kind = c.Kind
	}
	r.need, r.eqs, r.ranges, r.batches, r.pruned = need, nil, nil, 0, 0
	r.Reset(s)
}

// Reset points the reader at the first batch of s, a segment of the
// same table.
func (r *Reader) Reset(s *Segment) { r.seg, r.pos = s, 0 }

// Prune makes Next skip every batch whose zones exclude one of the
// conjuncts — the test CanMatch applies to a whole segment.
func (r *Reader) Prune(eqs []expr.EqPred, ranges []expr.RangePred) {
	r.eqs, r.ranges = eqs, ranges
}

// Batches reports how many batches the reader has entered, and how
// many of those Prune's conjuncts let it skip.
func (r *Reader) Batches() (entered, pruned int) { return r.batches, r.pruned }

// Next decodes the next batch the zones admit into b, returning false
// at end of segment. b's vector pointers alias the reader's reusable
// buffers and are only valid until the following Next call.
func (r *Reader) Next(b *Batch) bool {
	for r.pos < r.seg.rows {
		start, n := r.pos, min(r.seg.rows-r.pos, BatchSize)
		r.pos += n
		r.batches++
		if !r.seg.admits(start/BatchSize, r.eqs, r.ranges) {
			r.pruned++
			continue
		}
		b.Vecs = append(b.Vecs[:0], make([]*Vector, len(r.vecs))...)
		b.Seg, b.Start, b.Len = r.seg, start, n
		r.Fill(b, r.need, nil)
		return true
	}
	return false
}

// Fill decodes into the current batch b the columns where cols[ci] is
// true (cols == nil: all) and that Next did not decode, at the rows sel
// lists (nil: every row). A scan decodes its predicate columns with Next and fills the
// others at its selection, so a batch without a selected row has them
// never decoded, and an int or time column is decoded at the selected
// rows only. Its other positions hold whatever an earlier batch left:
// the sinks (the query package's projector and group table) read a
// batch at its selection alone.
func (r *Reader) Fill(b *Batch, cols []bool, sel []int32) {
	if sel == nil {
		sel = allRows[:b.Len]
	}
	for ci := range r.vecs {
		if (cols == nil || cols[ci]) && b.Vecs[ci] == nil {
			r.seg.cols[ci].read(&r.vecs[ci], &r.own[ci], b.Start, b.Len, sel)
			b.Vecs[ci] = &r.vecs[ci]
		}
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

// intColumn stores int64-backed kinds (int, time as Unix nanoseconds)
// frame-of-reference per batch: each batch keeps the minimum and
// maximum of its non-null rows, and each row its offset from that
// minimum in as few little-endian bytes as the batch's span needs —
// none for a constant batch, eight for one spanning all of int64. A
// null row stores offset 0, its validity bit set. Any row is one load
// and a mask, so there is no decoder state to carry from row to row or
// batch to batch, and a batch's frame is its zone map (batchZone).
type intColumn struct {
	k      val.Kind
	frames []intFrame // per batch
	data   []byte     // the batches' offsets, back to back
	rows   int
	nulls  []uint64 // validity bitmap (bit set = null); nil when none
	z      Zone
}

// intFrame bounds one batch's non-null values; both are 0 in a batch
// of nulls.
type intFrame struct{ lo, hi int64 }

// width is how many bytes each row offset of the batch takes.
func (f intFrame) width() int { return (bits.Len64(uint64(f.hi)-uint64(f.lo)) + 7) / 8 }

func (c *intColumn) zone() Zone    { return c.z }
func (c *intColumn) memBytes() int { return len(c.data) + len(c.nulls)*8 + len(c.frames)*16 }

func (c *intColumn) read(dst, own *Vector, row, n int, sel []int32) {
	b := row / BatchSize
	f, data := c.frames[b], c.data
	for _, g := range c.frames[:b] {
		data = data[g.width()*BatchSize:]
	}
	w := f.width()
	mask := uint64(1)<<(8*w) - 1 // all ones at w = 8: the shift gives 0
	out := grow(&own.I64)[:n]
	rest := sel
	if len(sel) == n && n*w+8 <= len(data) { // every row, none near the end
		for i := range out {
			out[i] = f.lo + int64(binary.LittleEndian.Uint64(data[i*w:])&mask)
		}
		rest = nil
	}
	for _, i := range rest { // a selection, or a batch at the column's end
		var word [8]byte
		copy(word[:], data[int(i)*w:])
		out[i] = f.lo + int64(binary.LittleEndian.Uint64(word[:])&mask)
	}
	dst.I64, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
}

// batchZone returns the zone of batch b and how many rows it holds.
func (c *intColumn) batchZone(b int) (Zone, int) {
	start := b * BatchSize
	n := min(BatchSize, c.rows-start)
	z := Zone{}
	if c.nulls != nil { // start is word-aligned, and no bit past the rows is set
		for _, word := range c.nulls[start/64 : (start+n+63)/64] {
			z.Nulls += bits.OnesCount64(word)
		}
	}
	if z.Nulls < n {
		z.Min, z.Max, z.OK = c.value(c.frames[b].lo), c.value(c.frames[b].hi), true
	}
	return z, n
}

// value boxes one of the column's int64s.
func (c *intColumn) value(x int64) val.Value {
	if c.k == val.KindTime {
		return val.Time(time.Unix(0, x).UTC())
	}
	return val.Int(x)
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

// read hands out a sub-slice of the stored values: they are immutable
// and already in vector form.
func (c *floatColumn) read(dst, own *Vector, row, n int, sel []int32) {
	dst.F64, dst.Null = c.vals[row:row+n], nullsOf(own, c.nulls, row, n, sel)
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

func (c *boolColumn) read(dst, own *Vector, row, n int, sel []int32) {
	out := grow(&own.I64)[:n]
	for _, i := range sel {
		out[i] = 0
		if deadBit(c.bits, row+int(i)) {
			out[i] = 1
		}
	}
	dst.I64, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
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

func (c *strColumn) read(dst, own *Vector, row, n int, sel []int32) {
	dst.Dict, dst.Code, dst.Null = c.dict, c.codes[row:row+n], nullsOf(own, c.nulls, row, n, sel)
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

func (c *bytesColumn) read(dst, own *Vector, row, n int, sel []int32) {
	out := grow(&own.Bytes)[:n]
	for _, i := range sel {
		p := row + int(i)
		out[i] = c.blob[c.offs[p]:c.offs[p+1]]
	}
	dst.Bytes, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
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

func (c *rawColumn) read(dst, own *Vector, row, n int, sel []int32) {
	*dst = c.vec.window(row, row+n)
}

// window returns rows [from, to) of a full-length vector.
func (v *Vector) window(from, to int) Vector {
	w := Vector{Kind: v.Kind, Dict: v.Dict, Null: v.Null[from:to]}
	switch v.Kind {
	case val.KindInt, val.KindTime, val.KindBool:
		w.I64 = v.I64[from:to]
	case val.KindFloat:
		w.F64 = v.F64[from:to]
	case val.KindString:
		w.Code = v.Code[from:to]
	case val.KindBytes:
		w.Bytes = v.Bytes[from:to]
	}
	return w
}

// ---- zone-map pruning ----

// admits reports whether the zones of a run of rows — batch b, or the
// whole segment when b < 0 — leave every equality and range conjunct
// satisfiable: the one test behind CanMatch and a Reader's skipping of
// batches. Only int and time columns keep batch zones; for the others
// the segment's zone stands in for each of its batches.
func (s *Segment) admits(b int, eqs []expr.EqPred, ranges []expr.RangePred) bool {
	zoneOf := func(field string) (Zone, int, bool) {
		ci := s.schema.ColIndex(field)
		if ci < 0 {
			// Unknown field: the conjunct evaluates NULL for every row,
			// so nothing here (or anywhere) matches.
			return Zone{}, 0, false
		}
		if c, ok := s.cols[ci].(*intColumn); ok && b >= 0 {
			z, n := c.batchZone(b)
			return z, n, true
		}
		return s.cols[ci].zone(), s.rows, true
	}
	for i := range eqs {
		if z, n, ok := zoneOf(eqs[i].Field); !ok || zoneExcludesEq(z, n, eqs[i].Value) {
			return false
		}
	}
	for i := range ranges {
		r := &ranges[i]
		if z, n, ok := zoneOf(r.Field); !ok || zoneExcludesRange(z, n, r.Lo, r.Hi, r.LoOpen, r.HiOpen, r.LoUnbounded, r.HiUnbounded) {
			return false
		}
	}
	return true
}

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

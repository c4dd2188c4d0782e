// Package columnar implements the engine's columnar event-history
// store: immutable sealed segments holding table history as typed
// column vectors — dictionary-encoded strings, frame-of-reference
// int64/timestamps, validity bitmaps — with per-segment zone maps
// (min/max/null-count per column) for scan pruning, and per-batch ones
// on int and time columns, whose frames are their zones.
//
// The background sealer cuts each table's history by row id (store.go):
// once a table has issued every id of a SealRows-wide range, the range's
// rows that hold what their insert wrote are taken from the row store as
// packed images (storage.Table.Images), encoded column by column
// (build.go) and handed back to the storage.Table as one segment, which
// takes the rows out of its row store and serves them from it
// (Segment.At, Segment.DecodeRows): the segment becomes one of the
// table's sealed runs, with the table's liveness bits. A SELECT reads
// the table (storage.Table.View): the query processor runs its
// vectorized filter+aggregate loop over the runs (filter.go,
// internal/query), and the table's hot rows through the row predicate.
// A run whose rows are mostly dead goes back to the table, and its file
// stays for restart (persist.go). History is the WAL's: REPLAY reads
// the log.
package columnar

import (
	"encoding/binary"
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

// Segment is one immutable sealed batch of table history: the rows a
// cut took from one range of row ids, stored column-wise. Which of its
// rows are still live is its table's to know (storage.Table.Evict).
type Segment struct {
	table  string
	schema *storage.Schema
	rows   int

	// ids holds each row's RowID, strictly increasing, so row position is
	// a binary search away. A segment whose ids are first …
	// first+rows-1 keeps first alone, and ids is nil.
	ids   []storage.RowID
	first storage.RowID

	cols []column

	bytes int // approximate in-memory footprint
}

// Rows returns the number of rows sealed in the segment.
func (s *Segment) Rows() int { return s.rows }

// RowID returns the RowID of row i.
func (s *Segment) RowID(i int) storage.RowID {
	if s.ids == nil {
		return s.first + storage.RowID(i)
	}
	return s.ids[i]
}

// bitSet reports whether bit i of a bitmap is set (nil: none is).
func bitSet(bits []uint64, i int) bool {
	if bits == nil {
		return false
	}
	return bits[i/64]&(1<<uint(i%64)) != 0
}

// Zone returns the zone map for schema column ci.
func (s *Segment) Zone(ci int) storage.Zone { return s.cols[ci].zone() }

// column is one column's encoded storage.
type column interface {
	zone() storage.Zone
	// at boxes row i, read where the column keeps it: no batch is set
	// up.
	at(i int) val.Value
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
		out[i] = bitSet(nulls, row+int(i))
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

	// Atoms every batch's zones must admit (Prune), and the batches
	// entered and skipped so far.
	atoms           []expr.Atom
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
// any table, with no atoms and no batches counted — but keeps the
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
	r.need, r.atoms, r.batches, r.pruned = need, nil, 0, 0
	r.Reset(s)
}

// Reset points the reader at the first batch of s, a segment of the
// same table.
func (r *Reader) Reset(s *Segment) { r.seg, r.pos = s, 0 }

// Prune makes Next skip every batch whose zones exclude one of the
// atoms — the test Admits applies to a whole run.
func (r *Reader) Prune(atoms []expr.Atom) { r.atoms = atoms }

// Batches reports how many batches the reader has entered, and how
// many of those Prune's atoms let it skip.
func (r *Reader) Batches() (entered, pruned int) { return r.batches, r.pruned }

// Next decodes the next batch the zones admit into b, returning false
// at end of segment. b's vector pointers alias the reader's reusable
// buffers and are only valid until the following Next call.
func (r *Reader) Next(b *Batch) bool {
	for r.pos < r.seg.rows {
		start, n := r.pos, min(r.seg.rows-r.pos, BatchSize)
		r.pos += n
		r.batches++
		if !r.seg.admits(start/BatchSize, r.atoms) {
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

// At returns row i's value of column ci, read where the column keeps
// it: a point read sets up no batch. String and bytes values alias the
// segment.
func (s *Segment) At(ci, i int) val.Value { return s.cols[ci].at(i) }

// DecodeRows decodes the rows whose bit is set in want (nil: every
// row), in order, through one batch reader: a batch without a wanted
// row is skipped, and the others are decoded at the wanted rows alone.
// fn is handed each row's position and a row the next call overwrites,
// until it returns false; DecodeRows reports whether it never did.
func (s *Segment) DecodeRows(want []uint64, fn func(i int, r storage.Row) bool) bool {
	r := s.NewReader(make([]bool, len(s.cols)))
	var b Batch
	row := make(storage.Row, len(s.cols))
	sel := make([]int32, 0, BatchSize)
	for r.Next(&b) {
		sel = sel[:0]
		for i := 0; i < b.Len; i++ {
			if want == nil || bitSet(want, b.Start+i) {
				sel = append(sel, int32(i))
			}
		}
		if len(sel) == 0 {
			continue
		}
		r.Fill(&b, nil, sel)
		for _, i := range sel {
			b.MaterializeRow(row, int(i))
			if !fn(b.Start+int(i), row) {
				return false
			}
		}
	}
	return true
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
	z      storage.Zone
}

// intFrame bounds one batch's non-null values; both are 0 in a batch
// of nulls.
type intFrame struct{ lo, hi int64 }

// width is how many bytes each row offset of the batch takes.
func (f intFrame) width() int { return (bits.Len64(uint64(f.hi)-uint64(f.lo)) + 7) / 8 }

func (c *intColumn) zone() storage.Zone { return c.z }
func (c *intColumn) memBytes() int      { return len(c.data) + len(c.nulls)*8 + len(c.frames)*16 }

// batch returns batch b's frame and the offsets from it onwards.
func (c *intColumn) batch(b int) (intFrame, []byte) {
	data := c.data
	for _, g := range c.frames[:b] {
		data = data[g.width()*BatchSize:]
	}
	return c.frames[b], data
}

// at reads row j of a batch framed by f, whose offsets data starts
// with, near the column's end or not.
func (f intFrame) at(data []byte, j int) int64 {
	w := f.width()
	var word [8]byte
	copy(word[:], data[j*w:])
	return f.lo + int64(binary.LittleEndian.Uint64(word[:])&(uint64(1)<<(8*w)-1))
}

func (c *intColumn) at(i int) val.Value {
	if bitSet(c.nulls, i) {
		return val.Null
	}
	f, data := c.batch(i / BatchSize)
	return c.value(f.at(data, i%BatchSize))
}

func (c *intColumn) read(dst, own *Vector, row, n int, sel []int32) {
	f, data := c.batch(row / BatchSize)
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
		out[i] = f.at(data, int(i))
	}
	dst.I64, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
}

// batchZone returns the zone of batch b and how many rows it holds.
func (c *intColumn) batchZone(b int) (storage.Zone, int) {
	start := b * BatchSize
	n := min(BatchSize, c.rows-start)
	z := storage.Zone{}
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
	z     storage.Zone
}

func (c *floatColumn) zone() storage.Zone { return c.z }
func (c *floatColumn) memBytes() int      { return len(c.vals)*8 + len(c.nulls)*8 }

func (c *floatColumn) at(i int) val.Value {
	if bitSet(c.nulls, i) {
		return val.Null
	}
	return val.Float(c.vals[i])
}

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
	z     storage.Zone
}

func (c *boolColumn) zone() storage.Zone { return c.z }
func (c *boolColumn) memBytes() int      { return len(c.bits)*8 + len(c.nulls)*8 }

func (c *boolColumn) at(i int) val.Value {
	if bitSet(c.nulls, i) {
		return val.Null
	}
	return val.Bool(bitSet(c.bits, i))
}

func (c *boolColumn) read(dst, own *Vector, row, n int, sel []int32) {
	out := grow(&own.I64)[:n]
	for _, i := range sel {
		out[i] = 0
		if bitSet(c.bits, row+int(i)) {
			out[i] = 1
		}
	}
	dst.I64, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
}

// strColumn dictionary-encodes strings: distinct values live once in
// dict (first-appearance order) and rows store uint32 codes. Equality
// filters against a literal become integer compares after one dict
// probe per segment (filter.go).
type strColumn struct {
	dict  []string
	codes []uint32
	nulls []uint64
	z     storage.Zone
}

func (c *strColumn) zone() storage.Zone { return c.z }
func (c *strColumn) memBytes() int {
	n := len(c.codes)*4 + len(c.nulls)*8
	for _, s := range c.dict {
		n += len(s) + 16
	}
	return n
}

func (c *strColumn) at(i int) val.Value {
	if bitSet(c.nulls, i) {
		return val.Null
	}
	return val.String(c.dict[c.codes[i]])
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
	z     storage.Zone
}

func (c *bytesColumn) zone() storage.Zone { return c.z }
func (c *bytesColumn) memBytes() int      { return len(c.offs)*4 + len(c.blob) + len(c.nulls)*8 }

func (c *bytesColumn) at(i int) val.Value {
	if bitSet(c.nulls, i) {
		return val.Null
	}
	return val.Bytes(c.blob[c.offs[i]:c.offs[i+1]])
}

func (c *bytesColumn) read(dst, own *Vector, row, n int, sel []int32) {
	out := grow(&own.Bytes)[:n]
	for _, i := range sel {
		p := row + int(i)
		out[i] = c.blob[c.offs[p]:c.offs[p+1]]
	}
	dst.Bytes, dst.Null = out, nullsOf(own, c.nulls, row, n, sel)
}

// ---- zone-map pruning ----

// Admits reports whether zones over rows rows, one per column of
// schema, leave every atom satisfiable: the test that skips a sealed
// run, or a table's hot rows, before any row is read. The atoms are
// conjuncts of the full predicate, so a run it refuses holds no row the
// predicate accepts.
func Admits(schema *storage.Schema, zones storage.Zones, rows int, atoms []expr.Atom) bool {
	return admits(schema, atoms, func(ci int) (storage.Zone, int) { return zones.Zone(ci), rows })
}

// admits is Admits of the batch b's zones, the test behind a Reader's
// skipping of batches. Only int and time columns keep batch zones; for
// the others the segment's zone stands in for each of its batches.
func (s *Segment) admits(b int, atoms []expr.Atom) bool {
	return admits(s.schema, atoms, func(ci int) (storage.Zone, int) {
		if c, ok := s.cols[ci].(*intColumn); ok {
			return c.batchZone(b)
		}
		return s.cols[ci].zone(), s.rows
	})
}

// admits runs the atoms against the zone and row count zoneOf gives a
// column.
func admits(schema *storage.Schema, atoms []expr.Atom, zoneOf func(ci int) (storage.Zone, int)) bool {
	for i := range atoms {
		ci := schema.ColIndex(atoms[i].Field)
		if ci < 0 {
			return false // an unknown field is NULL in every row
		}
		if z, n := zoneOf(ci); excludes(z, n, &atoms[i]) {
			return false
		}
	}
	return true
}

// excludes reports whether the zone of a column over rows rows proves
// that a holds for none of them: each is NULL, a's literal is, the
// column's values never equal it (= across kinds), or the zone's bounds
// lie on the far side of it. An ordering across kinds is an error
// row-side, so the zone proves nothing of it.
func excludes(z storage.Zone, rows int, a *expr.Atom) bool {
	if z.Nulls == rows || a.Lit.IsNull() {
		return true
	}
	if !z.OK {
		return false
	}
	lo, errLo := val.Compare(z.Min, a.Lit)
	hi, errHi := val.Compare(z.Max, a.Lit)
	if errLo != nil || errHi != nil {
		return a.Op == expr.OpEq
	}
	switch a.Op {
	case expr.OpEq:
		return lo > 0 || hi < 0
	case expr.OpLt:
		return lo >= 0
	case expr.OpLe:
		return lo > 0
	case expr.OpGt:
		return hi <= 0
	}
	return hi < 0 // OpGe
}

package query

import (
	"unsafe"

	"eventdb/internal/columnar"
	"eventdb/internal/val"
)

// Scratch is the working memory of query runs, kept from one run to
// the next: the columnar reader's decode buffers, the selection, the
// sinks (the group table's map, keys and accumulators among them) and
// the arena the result rows are cut from. A wire
// connection keeps one for its SELECTs (RunIn); Run and Explain use a
// fresh one. The zero value is ready; it serves one run at a time.
type Scratch struct {
	rd   columnar.Reader
	b    columnar.Batch
	sel  []int32
	need []bool
	cols []string

	proj  projector
	group groupTable
	rows  rowArena
	res   Result
}

// maxRetained bounds what a scratch keeps of a run for the next, per
// part, so that one large result does not pin its footprint. As for a
// wire connection's outbound buffer, the test is on what the run used.
const maxRetained = 64 << 10

const valueSize = int(unsafe.Sizeof(val.Value{}))

// rowArena backs a result's rows: each is cut from a slice of values,
// replaced by a new one when full (the rows cut so far keep the old).
// A fresh arena grows by what each batch needs, so a one-off result
// costs what it holds; a kept one starts each run with one slice the
// size of the last result.
type rowArena struct {
	vals []val.Value
	rows [][]val.Value
	used int // values cut since reset
}

// reserve makes room for n values, in a new slice of n if need be.
func (a *rowArena) reserve(n int) {
	if len(a.vals)+n > cap(a.vals) {
		a.vals = make([]val.Value, 0, n)
	}
}

// row appends a result row of n values and returns it. The values are
// left over from an earlier run: the caller sets every one.
func (a *rowArena) row(n int) []val.Value {
	if len(a.vals)+n > cap(a.vals) {
		a.vals = make([]val.Value, 0, max(n, a.used, 64)) // rows one at a time: grow geometrically
	}
	at := len(a.vals)
	a.vals = a.vals[:at+n]
	a.rows = append(a.rows, a.vals[at:at+n:at+n])
	a.used += n
	return a.rows[len(a.rows)-1]
}

func (a *rowArena) reset() {
	switch {
	case a.used*valueSize+len(a.rows)*int(unsafe.Sizeof([]val.Value(nil))) > maxRetained:
		*a = rowArena{}
	case a.used > cap(a.vals):
		a.vals = make([]val.Value, 0, a.used)
	}
	a.vals, a.rows, a.used = a.vals[:0], a.rows[:0], 0
}

package storage

import (
	"cmp"
	"math"
	"slices"

	"eventdb/internal/val"
)

// Zone is a column's zone map over a run of rows: what a scan reads of
// the run before any of its rows. Min and Max bound the column's
// non-null values while OK; a column of nulls only, or holding a NaN
// (which defeats ordering), has OK false and is never pruned by value.
// Nulls counts its null rows.
type Zone struct {
	Min, Max val.Value
	OK       bool
	Nulls    int
}

// Zones are the zone maps of a run of rows, one per schema column.
type Zones interface{ Zone(col int) Zone }

// zoneTrack widens a zone by one value at a time; a NaN breaks it for
// good.
type zoneTrack struct {
	z      Zone
	broken bool
}

func (t *zoneTrack) add(v val.Value) {
	switch f, isFloat := v.AsFloat(); {
	case t.broken:
	case isFloat && math.IsNaN(f):
		t.broken, t.z = true, Zone{}
	case !t.z.OK:
		t.z.Min, t.z.Max, t.z.OK = v, v, true
	default:
		if c, err := val.Compare(v, t.z.Min); err == nil && c < 0 {
			t.z.Min = v
		}
		if c, err := val.Compare(v, t.z.Max); err == nil && c > 0 {
			t.z.Max = v
		}
	}
}

// hotZones is a table's zone per column over its hot rows. Every insert,
// update and row taken back from a run widens it, and Evict recomputes
// it over the rows it leaves hot, so it may admit values no hot row
// holds but never excludes one that a row does. It counts no nulls, so
// it never prunes a column for being all null.
type hotZones []zoneTrack

// Zone implements Zones.
func (h *hotZones) Zone(col int) Zone { return (*h)[col].z }

func (h hotZones) widen(r Row) {
	for ci, v := range r {
		if !v.IsNull() {
			h[ci].add(v)
		}
	}
}

// rezone recomputes the hot zones over the hot rows. Caller holds t.mu
// for writing.
func (t *Table) rezone() {
	clear(t.hot)
	r := make(Row, len(t.schema.Columns))
	for _, img := range t.rows {
		t.hot.widen(t.unpackInto(r, img))
	}
}

// A View is what one scan reads of a table, taken at one instant: the
// sealed runs whose zones admit the scan and, when their zone does, the
// hot rows.
type View struct {
	// Runs are the admitted sealed runs, ascending by row id; Pruned
	// counts the others.
	Runs   []RunView
	Pruned int
	t      *Table
	hot    []hotRow // ascending by id
}

// RunView is one sealed run as a scan reads it.
type RunView struct {
	Seg Sealed
	// Live has bit i set while row i is the table's; nil when all are.
	Live []uint64
}

type hotRow struct {
	id  RowID
	img string
}

// View takes what a scan reads of the table under one read lock: each
// sealed run whose zones admits accepts, with a copy of its live bits
// when some of its rows are no longer the table's, and the hot images
// when admits accepts the hot zones. admits is handed zones and the
// rows they cover; nil admits everything. Nothing is copied for what it
// refuses.
func (t *Table) View(admits func(z Zones, rows int) bool) *View {
	v := &View{t: t}
	t.mu.RLock()
	v.Runs = make([]RunView, 0, len(t.runs))
	for _, run := range t.runs {
		if admits != nil && !admits(run.seg, run.seg.Rows()) {
			v.Pruned++
			continue
		}
		rv := RunView{Seg: run.seg}
		if run.n < run.seg.Rows() {
			rv.Live = slices.Clone(run.live)
		}
		v.Runs = append(v.Runs, rv)
	}
	if len(t.rows) > 0 && (admits == nil || admits(&t.hot, len(t.rows))) {
		v.hot = make([]hotRow, 0, len(t.rows))
		for id, img := range t.rows {
			v.hot = append(v.hot, hotRow{id, img})
		}
	}
	t.mu.RUnlock()
	slices.SortFunc(v.hot, func(a, b hotRow) int { return cmp.Compare(a.id, b.id) })
	return v
}

// Hot hands fn the view's hot rows in row-id order, each unpacked into
// a scratch row the next one overwrites, until fn returns false. It
// reports whether fn never did.
func (v *View) Hot(fn func(id RowID, r Row) bool) bool {
	r := make(Row, len(v.t.schema.Columns))
	for _, h := range v.hot {
		if !fn(h.id, v.t.unpackInto(r, h.img)) {
			return false
		}
	}
	return true
}

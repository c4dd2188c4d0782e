package query

import (
	"fmt"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// DeltaKind classifies a result-set change.
type DeltaKind int

// Result-set change kinds.
const (
	Added DeltaKind = iota
	Removed
	Changed
)

// String returns the delta kind name.
func (k DeltaKind) String() string {
	switch k {
	case Added:
		return "added"
	case Removed:
		return "removed"
	case Changed:
		return "changed"
	default:
		return fmt.Sprintf("delta(%d)", int(k))
	}
}

// Delta is one result-set change between two polls.
type Delta struct {
	Kind DeltaKind
	// Old and New are the previous and current result rows (nil when
	// not applicable). Columns follow the Differ's result columns.
	Old, New []val.Value
}

// Differ implements query-based capture: "if queries reference the
// current state the change of the result set is perceived as an event"
// (paper §2.2.a.iii.1). Poll runs the query and diffs against the
// previous result, keyed by the given key columns.
//
// Differ skips query execution entirely when the underlying tables'
// versions are unchanged since the last poll — the poll-side analogue of
// the paper's optimization remarks.
type Differ struct {
	q       *Query
	db      *storage.DB
	name    string
	keyCols []string

	cols        []string
	keyIdx      []int
	prev        map[string][]val.Value
	havePrev    bool
	lastVersion uint64
	haveVersion bool
}

// NewDiffer creates a differ. name labels emitted events; keyCols must
// be a subset of the query's output columns and uniquely identify a
// logical result row.
func NewDiffer(name string, q *Query, db *storage.DB, keyCols ...string) *Differ {
	return &Differ{q: q, db: db, name: name, keyCols: keyCols}
}

// Columns returns the result columns (available after the first Poll).
func (d *Differ) Columns() []string { return d.cols }

// tablesVersion sums the versions of the tables the query touches.
func (d *Differ) tablesVersion() (uint64, bool) {
	t, ok := d.db.Table(d.q.table)
	if !ok {
		return 0, false
	}
	sum := t.Version()
	if d.q.join != nil {
		jt, ok := d.db.Table(d.q.join.table)
		if !ok {
			return 0, false
		}
		sum += jt.Version()
	}
	return sum, true
}

// Poll runs the query and returns the deltas since the previous Poll.
// The first Poll reports every row as Added.
func (d *Differ) Poll() ([]Delta, error) {
	// The version is read before the query runs and is the one kept: a
	// commit that lands while the query runs must leave the next Poll a
	// version it has not seen (read afterwards, it would be remembered
	// beside a result that predates it, and never polled again).
	version, versioned := d.tablesVersion()
	if versioned && d.haveVersion && d.havePrev && version == d.lastVersion {
		return nil, nil // nothing changed since last poll
	}
	res, err := d.q.Run(d.db)
	if err != nil {
		return nil, err
	}
	if d.cols == nil {
		d.cols = res.Columns
		for _, k := range d.keyCols {
			ci := res.ColIndex(k)
			if ci < 0 {
				return nil, fmt.Errorf("query: differ key column %q not in result", k)
			}
			d.keyIdx = append(d.keyIdx, ci)
		}
	}
	cur := make(map[string][]val.Value, len(res.Rows))
	for _, row := range res.Rows {
		var kb []byte
		for _, ki := range d.keyIdx {
			kb = val.AppendKey(kb, row[ki])
		}
		cur[string(kb)] = row
	}
	var deltas []Delta
	for key, row := range cur {
		old, existed := d.prev[key]
		switch {
		case !existed:
			deltas = append(deltas, Delta{Kind: Added, New: row})
		case !rowsEqual(old, row):
			deltas = append(deltas, Delta{Kind: Changed, Old: old, New: row})
		}
	}
	for key, old := range d.prev {
		if _, still := cur[key]; !still {
			deltas = append(deltas, Delta{Kind: Removed, Old: old})
		}
	}
	d.prev = cur
	d.havePrev = true
	d.lastVersion, d.haveVersion = version, versioned
	return deltas, nil
}

func rowsEqual(a, b []val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if !a[i].IsNull() && !val.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Event converts a delta to an event of type "query.<name>.<kind>" with
// old_*/new_* attributes per result column.
func (d *Differ) Event(delta Delta) *event.Event {
	attrs := make(map[string]val.Value, 2*len(d.cols)+2)
	attrs["query"] = val.String(d.name)
	attrs["kind"] = val.String(delta.Kind.String())
	for i, c := range d.cols {
		if delta.New != nil {
			attrs["new_"+c] = delta.New[i]
		}
		if delta.Old != nil {
			attrs["old_"+c] = delta.Old[i]
		}
	}
	ev := &event.Event{
		ID:     event.NextID(),
		Type:   "query." + d.name + "." + delta.Kind.String(),
		Source: "capture/query",
		Attrs:  attrs,
	}
	ev.Time = eventNow()
	return ev
}

// PollEvents is Poll followed by Event conversion.
func (d *Differ) PollEvents() ([]*event.Event, error) {
	deltas, err := d.Poll()
	if err != nil {
		return nil, err
	}
	evs := make([]*event.Event, len(deltas))
	for i, delta := range deltas {
		evs[i] = d.Event(delta)
	}
	return evs, nil
}

// Package cq implements continuous queries over event streams
// (§2.2.c.i.3): standing filtered, grouped, windowed aggregations that
// emit an updated result whenever the stream changes it.
//
// Evaluation is incremental: each event updates per-group accumulators
// in O(1) plus evictions. The naive baseline — rescan the whole window
// per event — lives in the tests, as the oracle the accumulators are
// held to and as the other arm of the cost comparison.
package cq

import (
	"errors"
	"fmt"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/val"
)

// AggKind enumerates streaming aggregate functions.
type AggKind int

// Streaming aggregates.
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

// String returns the aggregate name.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// AggDef is one aggregate output.
type AggDef struct {
	Alias string
	Kind  AggKind
	Attr  string // ignored for Count
}

// WindowKind selects how the window bounds the stream.
type WindowKind int

// Window kinds.
const (
	// CountWindow keeps the last Size events (sliding).
	CountWindow WindowKind = iota
	// TimeWindow keeps events within Duration of the newest (sliding,
	// advanced by event time).
	TimeWindow
)

// Window bounds the stream portion aggregated.
type Window struct {
	Kind     WindowKind
	Size     int           // CountWindow
	Duration time.Duration // TimeWindow
}

// Def declares a continuous query.
type Def struct {
	Name    string
	Filter  string // predicate over event attributes; "" = all
	GroupBy []string
	Aggs    []AggDef
	Window  Window
}

// CQ is a running continuous query. Not safe for concurrent use.
type CQ struct {
	def    Def
	filter *expr.Predicate

	entries []entry // window contents, oldest first (ring not needed: slices amortize)
	groups  map[string]*groupState
}

type entry struct {
	t     time.Time
	key   string
	keyVs []val.Value
	vals  []val.Value // one per agg (the referenced attr's value)
}

type groupState struct {
	keyVs []val.Value
	n     int // live entries in window for this group
	count []int64
	sum   []float64
	// min/max maintained lazily: recomputed on eviction of an extreme.
	minV, maxV []val.Value
}

// New compiles a continuous query.
func New(def Def) (*CQ, error) {
	if def.Name == "" {
		return nil, errors.New("cq: name required")
	}
	if len(def.Aggs) == 0 {
		return nil, errors.New("cq: at least one aggregate required")
	}
	switch def.Window.Kind {
	case CountWindow:
		if def.Window.Size <= 0 {
			return nil, errors.New("cq: count window needs Size > 0")
		}
	case TimeWindow:
		if def.Window.Duration <= 0 {
			return nil, errors.New("cq: time window needs Duration > 0")
		}
	default:
		return nil, fmt.Errorf("cq: unknown window kind %d", def.Window.Kind)
	}
	q := &CQ{def: def, groups: make(map[string]*groupState)}
	if def.Filter != "" {
		p, err := expr.Compile(def.Filter)
		if err != nil {
			return nil, fmt.Errorf("cq: %q: %w", def.Name, err)
		}
		q.filter = p
	}
	return q, nil
}

// Name returns the query name.
func (q *CQ) Name() string { return q.def.Name }

// WindowLen returns the number of events currently in the window.
func (q *CQ) WindowLen() int { return len(q.entries) }

// Feed processes one event. If it passes the filter, the window advances
// and an updated-result event ("cq.<name>") for the affected group is
// returned (plus one per group whose values changed by eviction).
// Events must arrive in nondecreasing time order for time windows.
func (q *CQ) Feed(ev *event.Event) ([]*event.Event, error) {
	if q.filter != nil {
		ok, err := q.filter.Match(ev)
		if err != nil {
			return nil, fmt.Errorf("cq: %q: %w", q.def.Name, err)
		}
		if !ok {
			return nil, nil
		}
	}
	// Build the entry.
	en := entry{t: ev.Time}
	var kb []byte
	for _, g := range q.def.GroupBy {
		v, _ := ev.Get(g)
		en.keyVs = append(en.keyVs, v)
		kb = val.AppendKey(kb, v)
	}
	en.key = string(kb)
	for _, a := range q.def.Aggs {
		if a.Kind == Count {
			en.vals = append(en.vals, val.Int(1))
			continue
		}
		v, _ := ev.Get(a.Attr)
		en.vals = append(en.vals, v)
	}

	dirty := map[string]bool{en.key: true}

	// Evict.
	switch q.def.Window.Kind {
	case CountWindow:
		for len(q.entries) >= q.def.Window.Size {
			q.evictOldest(dirty)
		}
	case TimeWindow:
		cutoff := ev.Time.Add(-q.def.Window.Duration)
		for len(q.entries) > 0 && !q.entries[0].t.After(cutoff) {
			q.evictOldest(dirty)
		}
	}

	// Admit.
	q.entries = append(q.entries, en)
	gs, ok := q.groups[en.key]
	if !ok {
		gs = &groupState{
			keyVs: en.keyVs,
			count: make([]int64, len(q.def.Aggs)),
			sum:   make([]float64, len(q.def.Aggs)),
			minV:  make([]val.Value, len(q.def.Aggs)),
			maxV:  make([]val.Value, len(q.def.Aggs)),
		}
		q.groups[en.key] = gs
	}
	gs.n++
	q.applyAdd(gs, en.vals)

	// Emit one result event per dirty group.
	var out []*event.Event
	for key := range dirty {
		gs, ok := q.groups[key]
		if !ok {
			continue
		}
		out = append(out, q.resultEvent(ev.Time, gs))
	}
	return out, nil
}

func (q *CQ) evictOldest(dirty map[string]bool) {
	old := q.entries[0]
	q.entries = q.entries[1:]
	gs := q.groups[old.key]
	gs.n--
	dirty[old.key] = true
	if gs.n == 0 {
		delete(q.groups, old.key)
		return
	}
	q.applyRemove(gs, old)
}

func (q *CQ) applyAdd(gs *groupState, vals []val.Value) {
	for i, a := range q.def.Aggs {
		v := vals[i]
		if v.IsNull() {
			continue
		}
		switch a.Kind {
		case Count:
			gs.count[i]++
		case Sum, Avg:
			f, ok := v.AsFloat()
			if !ok {
				continue
			}
			gs.count[i]++
			gs.sum[i] += f
		case Min:
			if gs.minV[i].IsNull() || val.Less(v, gs.minV[i]) {
				gs.minV[i] = v
			}
			gs.count[i]++
		case Max:
			if gs.maxV[i].IsNull() || val.Less(gs.maxV[i], v) {
				gs.maxV[i] = v
			}
			gs.count[i]++
		}
	}
}

func (q *CQ) applyRemove(gs *groupState, old entry) {
	for i, a := range q.def.Aggs {
		v := old.vals[i]
		if v.IsNull() {
			continue
		}
		switch a.Kind {
		case Count:
			gs.count[i]--
		case Sum, Avg:
			f, ok := v.AsFloat()
			if !ok {
				continue
			}
			gs.count[i]--
			gs.sum[i] -= f
		case Min:
			gs.count[i]--
			if val.Equal(v, gs.minV[i]) {
				gs.minV[i] = q.recomputeExtreme(old.key, i, true)
			}
		case Max:
			gs.count[i]--
			if val.Equal(v, gs.maxV[i]) {
				gs.maxV[i] = q.recomputeExtreme(old.key, i, false)
			}
		}
	}
}

// recomputeExtreme rescans the live window for a group's min or max —
// the amortized cost of exact extremes under eviction.
func (q *CQ) recomputeExtreme(key string, aggIdx int, wantMin bool) val.Value {
	best := val.Null
	for _, en := range q.entries {
		if en.key != key {
			continue
		}
		v := en.vals[aggIdx]
		if v.IsNull() {
			continue
		}
		if best.IsNull() || (wantMin && val.Less(v, best)) || (!wantMin && val.Less(best, v)) {
			best = v
		}
	}
	return best
}

// resultEvent renders a group's current aggregates.
func (q *CQ) resultEvent(t time.Time, gs *groupState) *event.Event {
	attrs := make(map[string]val.Value, len(q.def.GroupBy)+len(q.def.Aggs)+1)
	for i, g := range q.def.GroupBy {
		attrs[g] = gs.keyVs[i]
	}
	attrs["window_len"] = val.Int(int64(gs.n))
	for i, a := range q.def.Aggs {
		attrs[a.Alias] = q.aggValue(gs, i, a.Kind)
	}
	return &event.Event{
		ID:     event.NextID(),
		Type:   "cq." + q.def.Name,
		Source: "cq",
		Time:   t,
		Attrs:  attrs,
	}
}

func (q *CQ) aggValue(gs *groupState, i int, kind AggKind) val.Value {
	switch kind {
	case Count:
		return val.Int(gs.count[i])
	case Sum:
		if gs.count[i] == 0 {
			return val.Null
		}
		return val.Float(gs.sum[i])
	case Avg:
		if gs.count[i] == 0 {
			return val.Null
		}
		return val.Float(gs.sum[i] / float64(gs.count[i]))
	case Min:
		return gs.minV[i]
	case Max:
		return gs.maxV[i]
	}
	return val.Null
}

// Package cq implements continuous queries over event streams
// (§2.2.c.i.3): standing grouped, windowed aggregations that emit an
// updated result whenever the stream changes it. A continuous query is
// SELECT's aggregation kept registered: each group folds its window into
// query.Accumulators, the ones a SELECT folds a table into, so the
// aggregate rules are SELECT's:
//
//   - count counts events and ignores attr;
//   - sum and avg leave out nulls and non-numbers;
//   - min and max order values by val.Less.
//
// Evaluation is incremental: an event is folded in once and taken back
// with Accumulator.Remove when it leaves the window; only a min or max
// losing its extreme refolds its group. The naive baseline — rescan the
// whole window per event — lives in the tests, as the oracle the
// accumulators are held to and as the other arm of the cost comparison.
package cq

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/query"
	"eventdb/internal/val"
)

// AggDef is one aggregate output.
type AggDef struct {
	Alias string
	Kind  query.AggKind
	Attr  string // ignored for query.Count
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
	Name string
	// Filter is a predicate over event attributes ("" = all). The
	// subscription that feeds the query applies it, not Feed: on the
	// wire, the CQ's broker subscription is registered with it.
	Filter  string
	GroupBy []string
	Aggs    []AggDef
	Window  Window
}

// CQ is a running continuous query. Not safe for concurrent use.
type CQ struct {
	def     Def
	entries []entry // window contents, oldest first (ring not needed: slices amortize)
	groups  map[string]*groupState
}

type entry struct {
	t    time.Time
	key  string
	vals []val.Value // one per agg: what it folded (null: nothing)
}

type groupState struct {
	keyVs []val.Value
	n     int // live entries in window for this group
	accs  []query.Accumulator
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
	return &CQ{def: def, groups: make(map[string]*groupState)}, nil
}

// Name returns the query name.
func (q *CQ) Name() string { return q.def.Name }

// Feed processes one event: the window advances and an updated-result
// event ("cq.<name>") is returned for the event's group, plus one per
// group whose values changed by eviction. Events must arrive in
// nondecreasing time order for time windows.
func (q *CQ) Feed(ev *event.Event) []*event.Event {
	// Build the entry.
	en := entry{t: ev.Time}
	var kb []byte
	var keyVs []val.Value
	for _, g := range q.def.GroupBy {
		v, _ := ev.Get(g)
		keyVs = append(keyVs, v)
		kb = val.AppendKey(kb, v)
	}
	en.key = string(kb)
	for _, a := range q.def.Aggs {
		v := val.Int(1) // count counts events
		if a.Kind != query.Count {
			v, _ = ev.Get(a.Attr)
		}
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
	gs, ok := q.groups[en.key]
	if !ok {
		// A group outlives the event that opened it, so its key strings
		// are copied out of the event: a decoded event's strings are parts
		// of its whole JSON input.
		for i, v := range keyVs {
			if s, ok := v.AsString(); ok {
				keyVs[i] = val.String(strings.Clone(s))
			}
		}
		gs = &groupState{keyVs: keyVs, accs: make([]query.Accumulator, len(q.def.Aggs))}
		for i, a := range q.def.Aggs {
			gs.accs[i].Kind = a.Kind
		}
		q.groups[en.key] = gs
	}
	gs.n++
	for i := range gs.accs {
		if gs.accs[i].Add(en.vals[i]) != nil {
			en.vals[i] = val.Null // a non-number: never folded, never taken back
		}
	}
	q.entries = append(q.entries, en)

	// Emit one result event per dirty group.
	var out []*event.Event
	for key := range dirty {
		gs, ok := q.groups[key]
		if !ok {
			continue
		}
		out = append(out, q.resultEvent(ev.Time, gs))
	}
	return out
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
	for i := range gs.accs {
		if gs.accs[i].Remove(old.vals[i]) {
			continue
		}
		// The evicted value may have been a min's or max's extreme:
		// refold what the group has left in the window.
		gs.accs[i] = query.Accumulator{Kind: gs.accs[i].Kind}
		for _, en := range q.entries {
			if en.key == old.key {
				_ = gs.accs[i].Add(en.vals[i]) // fails on nothing Feed stored
			}
		}
	}
}

// resultEvent renders a group's current aggregates.
func (q *CQ) resultEvent(t time.Time, gs *groupState) *event.Event {
	attrs := make(map[string]val.Value, len(q.def.GroupBy)+len(q.def.Aggs)+1)
	for i, g := range q.def.GroupBy {
		attrs[g] = gs.keyVs[i]
	}
	attrs["window_len"] = val.Int(int64(gs.n))
	for i, a := range q.def.Aggs {
		attrs[a.Alias] = gs.accs[i].Result()
	}
	return &event.Event{
		ID:     event.NextID(),
		Type:   "cq." + q.def.Name,
		Source: "cq",
		Time:   t,
		Attrs:  attrs,
	}
}

package query

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Accumulator is one aggregate's running state, and the only one: a
// SELECT folds each group's rows into one, and a continuous query
// (internal/cq) folds its window into one and takes back what leaves it
// with Remove. Nulls are skipped, SUM and AVG refuse a non-number, and
// MIN and MAX order values by val.Less.
type Accumulator struct {
	Kind  AggKind
	count int64
	sum   float64
	best  val.Value // min/max
	seen  bool
}

// Add folds v in. It fails only for a SUM or AVG of a non-number, which
// it leaves out.
func (a *Accumulator) Add(v val.Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip nulls
	}
	switch a.Kind {
	case Count:
		a.count++
	case Sum, Avg:
		f, ok := v.AsFloat()
		if !ok {
			return nonNumericError(a.Kind, v.Kind())
		}
		a.sum += f
		a.count++
	case Min, Max:
		if !a.seen || a.before(v, a.best) {
			a.best = v
			a.seen = true
		}
	}
	return nil
}

// Remove takes back a value Add accepted. It reports false when v may
// have been the MIN's or MAX's extreme: the accumulator is then stale,
// and the caller refolds the values that are left into a fresh one.
func (a *Accumulator) Remove(v val.Value) bool {
	if v.IsNull() {
		return true
	}
	switch a.Kind {
	case Count:
		a.count--
	case Sum, Avg:
		f, _ := v.AsFloat()
		a.sum -= f
		a.count--
	case Min, Max:
		return a.before(a.best, v)
	}
	return true
}

// before reports whether x is a strictly better MIN or MAX than y.
func (a *Accumulator) before(x, y val.Value) bool {
	if a.Kind == Min {
		return val.Less(x, y)
	}
	return val.Less(y, x)
}

func nonNumericError(kind AggKind, of val.Kind) error {
	return fmt.Errorf("query: %s over non-numeric value %s", kind, of)
}

// Result is the aggregate of what has been folded in: NULL for a SUM,
// AVG, MIN or MAX of nothing.
func (a *Accumulator) Result() val.Value {
	switch a.Kind {
	case Count:
		return val.Int(a.count)
	case Sum:
		if a.count == 0 {
			return val.Null
		}
		return val.Float(a.sum)
	case Avg:
		if a.count == 0 {
			return val.Null
		}
		return val.Float(a.sum / float64(a.count))
	case Min, Max:
		if !a.seen {
			return val.Null
		}
		return a.best
	}
	return val.Null
}

// addVec folds a vector's selected rows into the accumulator without
// boxing: numeric sums run straight over the raw slices, and min/max
// find the batch extremum unboxed before a single Add call.
// Semantics — null skipping, NaN ordering — match per-row Add
// exactly. A sum over a non-numeric vector adds nothing: the caller
// has already reported it (vecGrouper.firstError).
func (a *Accumulator) addVec(v *columnar.Vector, sel []int32) error {
	switch a.Kind {
	case Count:
		for _, i := range sel {
			if !v.Null[i] {
				a.count++
			}
		}
	case Sum, Avg:
		switch v.Kind {
		case val.KindInt:
			for _, i := range sel {
				if !v.Null[i] {
					a.sum += float64(v.I64[i])
					a.count++
				}
			}
		case val.KindFloat:
			for _, i := range sel {
				if !v.Null[i] {
					a.sum += v.F64[i]
					a.count++
				}
			}
		}
	case Min, Max:
		best := int32(-1)
		for _, i := range sel {
			if v.Null[i] {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			var c int
			switch v.Kind {
			case val.KindInt, val.KindTime, val.KindBool:
				switch {
				case v.I64[i] < v.I64[best]:
					c = -1
				case v.I64[i] > v.I64[best]:
					c = 1
				}
			case val.KindFloat:
				// NaN compares as neither, matching val.Compare: a NaN
				// that arrives first sticks, later ones never displace.
				switch {
				case v.F64[i] < v.F64[best]:
					c = -1
				case v.F64[i] > v.F64[best]:
					c = 1
				}
			case val.KindString:
				c = strings.Compare(v.Dict[v.Code[i]], v.Dict[v.Code[best]])
			case val.KindBytes:
				c = bytes.Compare(v.Bytes[i], v.Bytes[best])
			}
			if (a.Kind == Min && c < 0) || (a.Kind == Max && c > 0) {
				best = i
			}
		}
		if best >= 0 {
			return a.Add(v.Value(int(best)))
		}
	}
	return nil
}

// rowSink consumes the rows a query selects and shapes its result.
// Rows arrive one at a time from the row path (joins, NoColumnar) and
// from the row store side of a columnar scan, and as column vectors
// plus a selection from sealed runs and the hot rows; a sink
// gives the same result whichever way a row reaches it.
type rowSink interface {
	addRow(r expr.Resolver) error
	// bind prepares the sink for batches of schema's columns and sets
	// need[ci] for each schema column it reads; it returns need.
	bind(schema *storage.Schema, need []bool) []bool
	// addBatch consumes rows sel (ascending positions) of b, whose
	// vectors hold every column the sink reads.
	addBatch(b *columnar.Batch, sel []int32) error
	// finish cuts the rows still to come once every input row is in.
	finish()
}

// groupTable is the aggregation sink: GROUP BY state with one slot per
// distinct key and flat per-slot accumulators. A key is identified by
// the val.AppendKey bytes of its columns, which is also the order of
// the output, so rows fed boxed and rows fed as vectors land in the
// same slots. With no GROUP BY there is one slot, keyed "".
type groupTable struct {
	groupBy []string
	aggs    []aggSpec
	rows    *rowArena // where finish cuts the result rows

	slots   map[string]int32 // key bytes → slot
	keys    []string         // slot → key bytes
	keyVals []val.Value      // slot*len(groupBy)+i: key values, from the group's first row
	accs    []Accumulator    // slot*len(aggs)+i
	// arena backs keys: a new group appends its key bytes and views them
	// as a string, so it costs no allocation of its own. The bytes under
	// a key are written again only after reset has emptied slots and
	// keys, the only places that hold them.
	arena  []byte
	keyBuf []byte
	order  []int32 // finish's slot order

	vec vecGrouper // the vector feeder, set up by bind
}

// reset readies g for a run aggregating aggs per groupBy key into rows.
// The storage of the previous run is kept, unless it held more than
// maxRetained: key bytes, a string and a map entry per group (~48 B),
// key values, and accumulators (two values' worth each).
func (g *groupTable) reset(groupBy []string, aggs []aggSpec, rows *rowArena) {
	if len(g.arena)+len(g.keys)*48+(len(g.keyVals)+len(g.accs)*2)*valueSize > maxRetained {
		*g = groupTable{}
	}
	clear(g.slots)
	g.groupBy, g.aggs, g.rows = groupBy, aggs, rows
	g.keys, g.keyVals, g.accs, g.arena = g.keys[:0], g.keyVals[:0], g.accs[:0], g.arena[:0]
}

// reserve makes room for n more groups, so that adding them grows
// nothing one group at a time.
func (g *groupTable) reserve(n int) {
	if g.slots == nil {
		g.slots = make(map[string]int32, n)
	}
	have := len(g.keys)
	if cap(g.keys)-have >= n {
		return
	}
	nk, na := len(g.groupBy), len(g.aggs)
	g.keys = append(make([]string, 0, have+n), g.keys...)
	g.keyVals = append(make([]val.Value, 0, (have+n)*nk), g.keyVals...)
	g.accs = append(make([]Accumulator, 0, (have+n)*na), g.accs...)
}

// slot returns the slot of the group with the given key bytes, adding
// it when new. The caller sets a new group's key values.
func (g *groupTable) slot(key []byte) (slot int32, isNew bool) {
	if s, ok := g.slots[string(key)]; ok {
		return s, false
	}
	if g.slots == nil {
		g.slots = make(map[string]int32)
	}
	slot = int32(len(g.keys))
	off := len(g.arena)
	g.arena = append(g.arena, key...)
	k := unsafe.String(unsafe.SliceData(g.arena[off:]), len(key))
	g.slots[k] = slot
	g.keys = append(g.keys, k)
	for range g.groupBy {
		g.keyVals = append(g.keyVals, val.Null)
	}
	for _, a := range g.aggs {
		g.accs = append(g.accs, Accumulator{Kind: a.kind})
	}
	return slot, true
}

func (g *groupTable) addRow(r expr.Resolver) error {
	nk, na := len(g.groupBy), len(g.aggs)
	key := g.keyBuf[:0]
	for _, col := range g.groupBy {
		v, _ := r.Get(col)
		key = val.AppendKey(key, v)
	}
	g.keyBuf = key
	slot, isNew := g.slot(key)
	if isNew {
		for i, col := range g.groupBy {
			g.keyVals[int(slot)*nk+i], _ = r.Get(col)
		}
	}
	for i, a := range g.aggs {
		acc := &g.accs[int(slot)*na+i]
		if a.kind == Count && a.col == "" {
			acc.count++
			continue
		}
		v, _ := r.Get(a.col)
		if err := acc.Add(v); err != nil {
			return err
		}
	}
	return nil
}

func (g *groupTable) addBatch(b *columnar.Batch, sel []int32) error {
	return g.vec.addBatch(b, sel)
}

// finish cuts one result row per group, in ascending key order.
func (g *groupTable) finish() {
	nk, na := len(g.groupBy), len(g.aggs)
	// With no GROUP BY, aggregates yield exactly one row even over an
	// empty input.
	if nk == 0 && len(g.keys) == 0 {
		g.slot(nil)
	}
	order := g.order[:0]
	for i := range g.keys {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(g.keys[a], g.keys[b]) })
	g.order = order
	g.rows.reserve(len(order) * (nk + na))
	for _, slot := range order {
		s := int(slot)
		row := g.rows.row(nk + na)
		copy(row, g.keyVals[s*nk:(s+1)*nk])
		for i := range g.aggs {
			row[nk+i] = g.accs[s*na+i].Result()
		}
	}
}

// vecGrouper feeds a groupTable from column vectors: per batch it maps
// every selected row to its slot, then folds each aggregate over the
// raw vectors into the flat accumulators.
type vecGrouper struct {
	g       *groupTable
	keyCols []int // schema column per group column; -1 unknown (always NULL)
	aggCols []int // schema column per aggregate; -1 unknown or count(*)
	// failing lists the SUM/AVG aggregates over a non-numeric column:
	// each fails on its first non-null input.
	failing []int

	// Single-column keys skip the key bytes for rows whose value has
	// been seen: a string key maps dictionary code → slot through a
	// table bound once per segment (codes are per-dictionary); an int,
	// time or bool key maps its int64 through a map that holds for the
	// whole scan. nullSlot is the NULL key's slot; -1 is "not seen".
	seg      *columnar.Segment
	codeSlot []int32
	intKey   bool
	intSlot  map[int64]int32
	nullSlot int32

	slotOf []int32 // slot per selected row of the current batch
}

func (g *groupTable) bind(schema *storage.Schema, need []bool) []bool {
	f := &g.vec
	f.g, f.seg, f.nullSlot, f.intKey = g, nil, -1, false
	f.keyCols, f.aggCols, f.failing = f.keyCols[:0], f.aggCols[:0], f.failing[:0]
	if f.slotOf == nil {
		f.slotOf = make([]int32, columnar.BatchSize)
	}
	for _, col := range g.groupBy {
		ci := schema.ColIndex(col)
		f.keyCols = append(f.keyCols, ci)
		if ci >= 0 {
			need[ci] = true
		}
	}
	for i, a := range g.aggs {
		ci := -1
		if a.col != "" {
			ci = schema.ColIndex(a.col)
		}
		f.aggCols = append(f.aggCols, ci)
		if ci >= 0 {
			need[ci] = true
		}
		if ci >= 0 && (a.kind == Sum || a.kind == Avg) {
			if k := schema.Columns[ci].Kind; k != val.KindInt && k != val.KindFloat {
				f.failing = append(f.failing, i)
			}
		}
	}
	if len(f.keyCols) == 1 && f.keyCols[0] >= 0 {
		switch schema.Columns[f.keyCols[0]].Kind {
		case val.KindInt, val.KindTime, val.KindBool:
			f.intKey = true
			if f.intSlot == nil {
				f.intSlot = make(map[int64]int32)
			}
			clear(f.intSlot)
		}
	}
	return need
}

// firstError reports what the row path would hit first in this batch:
// the earliest selected row with a non-null input to a failing
// aggregate, and of several on that row the leftmost.
func (f *vecGrouper) firstError(b *columnar.Batch, sel []int32) error {
	var err error
	first := int32(columnar.BatchSize)
	for _, ai := range f.failing {
		v := b.Vecs[f.aggCols[ai]]
		for _, i := range sel {
			if i >= first {
				break
			}
			if !v.Null[i] {
				first, err = i, nonNumericError(f.g.aggs[ai].kind, v.Kind)
				break
			}
		}
	}
	return err
}

func (f *vecGrouper) addBatch(b *columnar.Batch, sel []int32) error {
	if err := f.firstError(b, sel); err != nil {
		return err
	}
	g := f.g
	na := len(g.aggs)
	if len(f.keyCols) == 0 {
		slot, _ := g.slot(nil)
		for ai, ci := range f.aggCols {
			acc := &g.accs[int(slot)*na+ai]
			switch {
			case g.aggs[ai].col == "" && acc.Kind == Count:
				acc.count += int64(len(sel))
			case ci >= 0:
				if err := acc.addVec(b.Vecs[ci], sel); err != nil {
					return err
				}
			}
		}
		return nil
	}

	slots := f.slotOf[:len(sel)]
	f.assignSlots(b, sel, slots)
	for ai, ci := range f.aggCols {
		a := g.aggs[ai]
		if a.kind == Count && a.col == "" {
			for _, s := range slots {
				g.accs[int(s)*na+ai].count++
			}
			continue
		}
		if ci < 0 {
			continue // an unknown column resolves NULL, which aggregates skip
		}
		v := b.Vecs[ci]
		switch {
		case a.kind == Count:
			for k, i := range sel {
				if !v.Null[i] {
					g.accs[int(slots[k])*na+ai].count++
				}
			}
		case a.kind == Min || a.kind == Max:
			for k, i := range sel {
				if v.Null[i] {
					continue
				}
				if err := g.accs[int(slots[k])*na+ai].Add(v.Value(int(i))); err != nil {
					return err
				}
			}
		case v.Kind == val.KindInt: // Sum, Avg
			for k, i := range sel {
				if !v.Null[i] {
					acc := &g.accs[int(slots[k])*na+ai]
					acc.sum += float64(v.I64[i])
					acc.count++
				}
			}
		case v.Kind == val.KindFloat:
			for k, i := range sel {
				if !v.Null[i] {
					acc := &g.accs[int(slots[k])*na+ai]
					acc.sum += v.F64[i]
					acc.count++
				}
			}
		}
	}
	return nil
}

// assignSlots maps each selected row of b to its group slot.
func (f *vecGrouper) assignSlots(b *columnar.Batch, sel []int32, slots []int32) {
	var key *columnar.Vector
	if len(f.keyCols) == 1 && f.keyCols[0] >= 0 {
		key = b.Vecs[f.keyCols[0]]
	}
	switch {
	case key != nil && key.Kind == val.KindString:
		if f.seg != b.Seg {
			// A segment adds at most one group per dictionary entry.
			f.seg = b.Seg
			f.g.reserve(len(key.Dict))
			if cap(f.codeSlot) < len(key.Dict) {
				f.codeSlot = make([]int32, len(key.Dict))
			}
			f.codeSlot = f.codeSlot[:len(key.Dict)]
			for code := range f.codeSlot {
				f.codeSlot[code] = -1
			}
		}
		for k, i := range sel {
			if key.Null[i] {
				slots[k] = f.nullKeySlot(b, i)
				continue
			}
			code := key.Code[i]
			if f.codeSlot[code] < 0 {
				f.codeSlot[code] = f.keySlot(b, i)
			}
			slots[k] = f.codeSlot[code]
		}
	case key != nil && f.intKey:
		for k, i := range sel {
			if key.Null[i] {
				slots[k] = f.nullKeySlot(b, i)
				continue
			}
			s, ok := f.intSlot[key.I64[i]]
			if !ok {
				s = f.keySlot(b, i)
				f.intSlot[key.I64[i]] = s
			}
			slots[k] = s
		}
	default:
		for k, i := range sel {
			slots[k] = f.keySlot(b, i)
		}
	}
}

func (f *vecGrouper) nullKeySlot(b *columnar.Batch, i int32) int32 {
	if f.nullSlot < 0 {
		f.nullSlot = f.keySlot(b, i)
	}
	return f.nullSlot
}

// keySlot finds row i's slot by its key bytes, built straight from the
// vectors, and records the key values of a new group.
func (f *vecGrouper) keySlot(b *columnar.Batch, i int32) int32 {
	g := f.g
	key := g.keyBuf[:0]
	for _, ci := range f.keyCols {
		key = val.AppendKey(key, f.keyVal(b, ci, i))
	}
	g.keyBuf = key
	slot, isNew := g.slot(key)
	if isNew {
		for k, ci := range f.keyCols {
			g.keyVals[int(slot)*len(f.keyCols)+k] = f.keyVal(b, ci, i)
		}
	}
	return slot
}

func (f *vecGrouper) keyVal(b *columnar.Batch, ci int, i int32) val.Value {
	if ci < 0 {
		return val.Null
	}
	return b.Vecs[ci].Value(int(i))
}

package rules

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"

	"eventdb/internal/expr"
	"eventdb/internal/val"
)

// Index files standing conditions — rules, subscriptions, the guarded
// edges of a pattern automaton — under the indexable atoms of their
// conditions (`field = literal` and numeric range conjuncts), so an
// event reaches the conditions it could satisfy through its own
// attribute values. It is a pre-filter: Match returns the entries all of
// whose filed atoms hold, and the caller confirms each against its
// condition.
//
// Selectivity policy: equalities are far more selective than ranges (a
// range like `price > x` can admit most of the value space), so an
// entry is filed under its equalities if it has any, else under its
// numeric ranges; one with neither is not filed, and its owner scans
// it. The owner serializes Add and Remove against Match; the zero Index
// is empty and ready to use.
type Index[T comparable] struct {
	// BareFields files only atoms over names without a dot: a pattern
	// guard's `a.x` names an earlier bound event, not the one probed.
	BareFields bool

	attrs map[string]*attr[T]
	order []*attr[T] // probe order: the order attributes were first filed
	size  int        // entries filed
}

// attr is one attribute's equality map and interval index.
type attr[T comparable] struct {
	name string
	eq   map[string][]posting[T]
	rng  intervalIndex[T]
	n    int // atoms filed here, equality and range
}

// posting is one filed atom: its entry and how many atoms that entry
// has filed, all of which must hold for it to be a candidate.
type posting[T comparable] struct {
	v    T
	need int
}

// atom is one conjunct the policy files: an equality to eq, or the
// numeric range rp.
type atom struct {
	field string
	eq    val.Value
	rp    *expr.RangePred
}

// atoms lists what the selectivity policy files of cond (nil files
// nothing).
func (ix *Index[T]) atoms(cond *expr.Predicate) []atom {
	if cond == nil {
		return nil
	}
	filed := func(field string) bool { return !ix.BareFields || !strings.Contains(field, ".") }
	eqs, ranges := cond.Indexable()
	var out []atom
	for _, eq := range eqs {
		if filed(eq.Field) {
			out = append(out, atom{field: eq.Field, eq: eq.Value})
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := range ranges {
		rp := &ranges[i]
		if _, _, ok := rp.NumericBounds(); ok && filed(rp.Field) {
			out = append(out, atom{field: rp.Field, rp: rp})
		}
	}
	return out
}

// Add files v under cond's atoms and returns how many it filed: 0 means
// none, and the caller must scan v itself.
func (ix *Index[T]) Add(v T, cond *expr.Predicate) int {
	atoms := ix.atoms(cond)
	for _, at := range atoms {
		a := ix.attrs[at.field]
		if a == nil {
			if ix.attrs == nil {
				ix.attrs = make(map[string]*attr[T])
			}
			a = &attr[T]{name: at.field, eq: make(map[string][]posting[T])}
			ix.attrs[at.field] = a
			ix.order = append(ix.order, a)
		}
		a.n++
		ps := posting[T]{v: v, need: len(atoms)}
		if at.rp != nil {
			lo, hi, _ := at.rp.NumericBounds()
			a.rng.insert(interval[T]{lo: lo, hi: hi, v: v, need: int32(ps.need), loOpen: at.rp.LoOpen, hiOpen: at.rp.HiOpen})
		} else {
			key := string(appendKey(nil, at.eq))
			a.eq[key] = append(a.eq[key], ps)
		}
	}
	if len(atoms) > 0 {
		ix.size++
	}
	return len(atoms)
}

// Remove unfiles what Add(v, cond) filed and returns how many atoms
// that was.
func (ix *Index[T]) Remove(v T, cond *expr.Predicate) int {
	atoms := ix.atoms(cond)
	for _, at := range atoms {
		a := ix.attrs[at.field]
		if at.rp != nil {
			a.rng.remove(v)
		} else {
			key := string(appendKey(nil, at.eq))
			ps := a.eq[key]
			i := slices.IndexFunc(ps, func(p posting[T]) bool { return p.v == v })
			if ps = slices.Delete(ps, i, i+1); len(ps) == 0 {
				delete(a.eq, key)
			} else {
				a.eq[key] = ps
			}
		}
		if a.n--; a.n == 0 {
			delete(ix.attrs, at.field)
			ix.order = slices.DeleteFunc(ix.order, func(x *attr[T]) bool { return x == a })
		}
	}
	if len(atoms) > 0 {
		ix.size--
	}
	return len(atoms)
}

// Len returns how many entries are filed.
func (ix *Index[T]) Len() int { return ix.size }

// Match appends to dst every entry all of whose filed atoms r
// satisfies, each once, and returns it. p is the caller's scratch.
//
// Counting is epoch-stamped: a counter from an earlier Match reads as
// zero, so the per-event cost is O(attributes + candidates), and the
// counters are reset only when removed entries could outnumber the
// live ones. An entry filed under one atom — the common case — is a
// candidate at its first hit and is never counted.
func (ix *Index[T]) Match(r expr.Resolver, p *Probe[T], dst []T) []T {
	if len(ix.order) == 0 {
		return dst
	}
	p.epoch++
	if len(p.counts) > 2*ix.size+64 {
		clear(p.counts)
	}
	hit := func(ps posting[T]) {
		if ps.need == 1 {
			dst = append(dst, ps.v)
			return
		}
		if p.counts == nil {
			p.counts = make(map[T]hitCount)
		}
		h := p.counts[ps.v]
		if h.epoch != p.epoch {
			h = hitCount{epoch: p.epoch}
		}
		h.n++
		p.counts[ps.v] = h
		if h.n == ps.need {
			dst = append(dst, ps.v)
		}
	}
	for _, a := range ix.order {
		v, ok := r.Get(a.name)
		if !ok || v.IsNull() {
			continue
		}
		if len(a.eq) > 0 {
			// The string conversion inside the map index does not
			// allocate.
			p.key = appendKey(p.key[:0], v)
			for _, ps := range a.eq[string(p.key)] {
				hit(ps)
			}
		}
		if f, ok := v.AsFloat(); ok {
			a.rng.stab(f, hit)
		}
	}
	return dst
}

// appendKey encodes v as an equality key, such that every pair of
// values expr's `=` calls equal shares one. Numerics are keyed by their
// float64 value, −0 folded into +0, so Int(1) and Float(1.0) meet;
// integers past 2^53 may share a key with a neighbour, which only adds a
// candidate that the confirm step rejects. val.AppendKey keeps the
// int/float tie-break that storage keys and GROUP BY need, so it serves
// only the other kinds.
func appendKey(dst []byte, v val.Value) []byte {
	f, ok := v.AsFloat()
	if !ok {
		return val.AppendKey(dst, v)
	}
	if f == 0 {
		f = 0 // −0
	}
	return binary.BigEndian.AppendUint64(append(dst, 0xFF), math.Float64bits(f))
}

// hitCount is one epoch-stamped candidate counter.
type hitCount struct {
	epoch uint64
	n     int
}

// Probe is the reusable scratch of Index.Match: the epoch-stamped
// counters and the key buffer. One goroutine owns a Probe; the zero
// Probe is ready to use.
type Probe[T comparable] struct {
	epoch  uint64
	counts map[T]hitCount
	key    []byte
}

// interval is one numeric range atom.
type interval[T comparable] struct {
	lo, hi         float64 // ±Inf when unbounded
	v              T
	need           int32 // the posting's, flattened so the flags pack beside it
	loOpen, hiOpen bool
}

func (iv *interval[T]) posting() posting[T] { return posting[T]{v: iv.v, need: int(iv.need)} }

func (iv interval[T]) contains(v float64) bool {
	return (v > iv.lo || v == iv.lo && !iv.loOpen) && (v < iv.hi || v == iv.hi && !iv.hiOpen)
}

// intervalIndex answers stabbing queries ("which intervals contain v?").
// Implementation: intervals sorted by lo with a running maximum of hi;
// a stab binary-searches the last lo <= v and walks backwards, stopping
// as soon as the prefix maximum of hi falls below v. For typical
// condition sets (narrow, scattered ranges) the walk is short. Inserts
// are staged and sorted in 64 at a time, keeping add O(1) amortized —
// which is what "frequently changing rule sets" need.
type intervalIndex[T comparable] struct {
	ivs    []interval[T]
	maxHi  []float64     // prefix max of ivs[i].hi
	staged []interval[T] // pending inserts since last rebuild
}

func (ix *intervalIndex[T]) insert(iv interval[T]) {
	if ix.staged = append(ix.staged, iv); len(ix.staged) >= 64 {
		ix.ivs = append(ix.ivs, ix.staged...)
		ix.staged = nil
		sort.Slice(ix.ivs, func(i, j int) bool { return ix.ivs[i].lo < ix.ivs[j].lo })
		ix.prefixMax()
	}
}

// remove drops v's intervals. The prefix maxima are recomputed: a stab
// stops at the first one below its value, so one a removal left stale
// would hide the intervals after it.
func (ix *intervalIndex[T]) remove(v T) {
	gone := func(iv interval[T]) bool { return iv.v == v }
	ix.staged = slices.DeleteFunc(ix.staged, gone)
	if ivs := slices.DeleteFunc(ix.ivs, gone); len(ivs) < len(ix.ivs) {
		ix.ivs = ivs
		ix.prefixMax()
	}
}

func (ix *intervalIndex[T]) prefixMax() {
	ix.maxHi = ix.maxHi[:0]
	running := math.Inf(-1)
	for _, iv := range ix.ivs {
		running = max(running, iv.hi)
		ix.maxHi = append(ix.maxHi, running)
	}
}

// stab calls fn for every interval containing v.
func (ix *intervalIndex[T]) stab(v float64, fn func(posting[T])) {
	// Staged (not yet sorted) intervals are scanned linearly.
	for _, iv := range ix.staged {
		if iv.contains(v) {
			fn(iv.posting())
		}
	}
	// Last index with lo <= v.
	i := sort.Search(len(ix.ivs), func(i int) bool { return ix.ivs[i].lo > v }) - 1
	for ; i >= 0 && ix.maxHi[i] >= v; i-- {
		if ix.ivs[i].contains(v) {
			fn(ix.ivs[i].posting())
		}
	}
}

package rules

import (
	"math"
	"slices"
	"sort"
)

// interval is one numeric range conjunct pointing at its rule.
type interval struct {
	lo, hi         float64 // ±Inf when unbounded
	loOpen, hiOpen bool
	rule           *Rule
}

func (iv interval) contains(v float64) bool {
	if v < iv.lo || (v == iv.lo && iv.loOpen) {
		return false
	}
	if v > iv.hi || (v == iv.hi && iv.hiOpen) {
		return false
	}
	return true
}

// intervalIndex answers stabbing queries ("which intervals contain v?").
// Implementation: intervals sorted by lo with a running maximum of hi;
// a stab binary-searches the last lo <= v and walks backwards, stopping
// as soon as the prefix maximum of hi falls below v. For typical rule
// sets (narrow, scattered ranges) the walk is short. Inserts are staged
// and sorted in 64 at a time, keeping add O(1) amortized — which is what
// "frequently changing rule sets" need. The engine calls insert and
// remove under its write lock and stab under its read lock.
type intervalIndex struct {
	ivs    []interval
	maxHi  []float64  // prefix max of ivs[i].hi
	staged []interval // pending inserts since last rebuild
}

func (ix *intervalIndex) insert(iv interval) {
	if ix.staged = append(ix.staged, iv); len(ix.staged) >= 64 {
		ix.ivs = append(ix.ivs, ix.staged...)
		ix.staged = nil
		sort.Slice(ix.ivs, func(i, j int) bool { return ix.ivs[i].lo < ix.ivs[j].lo })
		ix.prefixMax()
	}
}

// remove drops r's intervals. The prefix maxima are recomputed: a stab
// stops at the first one below its value, so one a removal left stale
// would hide the intervals after it.
func (ix *intervalIndex) remove(r *Rule) {
	gone := func(iv interval) bool { return iv.rule == r }
	ix.staged = slices.DeleteFunc(ix.staged, gone)
	if ivs := slices.DeleteFunc(ix.ivs, gone); len(ivs) < len(ix.ivs) {
		ix.ivs = ivs
		ix.prefixMax()
	}
}

func (ix *intervalIndex) prefixMax() {
	ix.maxHi = ix.maxHi[:0]
	running := math.Inf(-1)
	for _, iv := range ix.ivs {
		running = max(running, iv.hi)
		ix.maxHi = append(ix.maxHi, running)
	}
}

// stab calls fn for every interval containing v.
func (ix *intervalIndex) stab(v float64, fn func(*Rule)) {
	// Staged (not yet sorted) intervals are scanned linearly.
	for _, iv := range ix.staged {
		if iv.contains(v) {
			fn(iv.rule)
		}
	}
	// Last index with lo <= v.
	i := sort.Search(len(ix.ivs), func(i int) bool { return ix.ivs[i].lo > v }) - 1
	for ; i >= 0 && ix.maxHi[i] >= v; i-- {
		if ix.ivs[i].contains(v) {
			fn(ix.ivs[i].rule)
		}
	}
}

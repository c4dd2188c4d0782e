// Package rules implements the rules engine of §2.2.c: large sets of
// condition→action rules evaluated against every event.
//
// The engine treats rule conditions as data (§2.2.c.i.2): each
// condition's indexable conjuncts (field = literal, field ranges) are
// extracted into attribute indexes, so matching an event costs roughly
// O(attributes + candidates) instead of O(rules). This is the mechanism
// behind the paper's scalability claims for "large rule sets" and
// "frequently changing rules sets": adding or removing a rule touches
// only that rule's index entries.
//
// Matching uses the classic counting algorithm: an event satisfies a
// rule's index entry set when every indexed conjunct matched; those
// candidates (plus rules with no indexable conjunct) are then confirmed
// by full predicate evaluation, so indexing is a pure optimization and
// never changes results.
package rules

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/val"
)

// Action runs when a rule matches an event.
type Action func(ev *event.Event, r *Rule)

// Rule is one condition→action rule.
type Rule struct {
	Name     string
	Priority int // higher runs first
	Source   string
	Action   Action

	pred     *expr.Predicate
	nIndexed int
}

// Engine holds a mutable rule set and matches events against it.
type Engine struct {
	mu    sync.RWMutex
	rules map[string]*Rule
	// eqIndex: field → encoded literal → rules requiring that equality.
	eqIndex map[string]map[string][]*Rule
	// rangeIndex: field → interval structure over numeric range conjuncts.
	rangeIndex map[string]*intervalIndex
	// residual: rules with no indexable conjunct; always fully evaluated.
	residual map[string]*Rule

	// matcherPool recycles match scratch for the one-shot Match entry
	// point, so callers without a dedicated Matcher still match
	// allocation-free in the steady state.
	matcherPool sync.Pool
}

// NewEngine creates a rules engine.
func NewEngine() *Engine {
	e := &Engine{
		rules:      make(map[string]*Rule),
		eqIndex:    make(map[string]map[string][]*Rule),
		rangeIndex: make(map[string]*intervalIndex),
		residual:   make(map[string]*Rule),
	}
	e.matcherPool.New = func() any { return e.NewMatcher() }
	return e
}

// Len returns the number of rules.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rules)
}

// Add compiles and installs a rule. Adding an existing name is an error;
// Remove it first.
func (e *Engine) Add(name, condition string, priority int, action Action) (*Rule, error) {
	pred, err := expr.Compile(condition)
	if err != nil {
		return nil, fmt.Errorf("rules: %q: %w", name, err)
	}
	r := &Rule{Name: name, Priority: priority, Source: condition, Action: action, pred: pred}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[name]; dup {
		return nil, fmt.Errorf("rules: %q already exists", name)
	}
	e.rules[name] = r
	e.indexLocked(r)
	return r, nil
}

// Remove uninstalls a rule.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	delete(e.rules, name)
	e.unindexLocked(r)
	return nil
}

// Rules returns rule names sorted by (priority desc, name).
func (e *Engine) Rules() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Rule, 0, len(e.rules))
	for _, r := range e.rules {
		out = append(out, r)
	}
	sortRules(out)
	names := make([]string, len(out))
	for i, r := range out {
		names[i] = r.Name
	}
	return names
}

// sortRules orders by (priority desc, name). slices.SortFunc, not
// sort.Slice: the former is allocation-free, and this runs once per
// matched event on the publish hot path.
func sortRules(rs []*Rule) {
	slices.SortFunc(rs, func(a, b *Rule) int {
		if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
}

// indexLocked adds a rule's indexable conjuncts to the indexes.
//
// Selectivity policy: equality conjuncts are far more selective than
// ranges (a range like "price > x" can admit most of the value space,
// making the counting pass O(rules)). So a rule with any equality
// conjunct is anchored on its equalities only — the confirm step's full
// predicate evaluation checks the ranges. The interval index serves
// rules whose only indexable conjuncts are ranges.
func (e *Engine) indexLocked(r *Rule) {
	n := 0
	if len(r.pred.EqPreds) > 0 {
		for _, eq := range r.pred.EqPreds {
			key := string(val.AppendKey(nil, eq.Value))
			byVal, ok := e.eqIndex[eq.Field]
			if !ok {
				byVal = make(map[string][]*Rule)
				e.eqIndex[eq.Field] = byVal
			}
			byVal[key] = append(byVal[key], r)
			n++
		}
	} else {
		for _, rp := range r.pred.RangePreds {
			lo, hi, ok := rp.NumericBounds()
			if !ok {
				continue // non-numeric range: leave to full evaluation
			}
			ix, exists := e.rangeIndex[rp.Field]
			if !exists {
				ix = newIntervalIndex()
				e.rangeIndex[rp.Field] = ix
			}
			ix.insert(interval{lo: lo, hi: hi, loOpen: rp.LoOpen, hiOpen: rp.HiOpen, rule: r})
			if len(ix.staged) >= 64 {
				ix.compact()
			}
			n++
		}
	}
	r.nIndexed = n
	if n == 0 {
		e.residual[r.Name] = r
	}
}

// unindexLocked removes a rule's index entries (mirroring the policy in
// indexLocked).
func (e *Engine) unindexLocked(r *Rule) {
	delete(e.residual, r.Name)
	if r.nIndexed == 0 {
		return
	}
	if len(r.pred.EqPreds) > 0 {
		for _, eq := range r.pred.EqPreds {
			key := string(val.AppendKey(nil, eq.Value))
			byVal := e.eqIndex[eq.Field]
			rules := byVal[key]
			for i, x := range rules {
				if x == r {
					rules[i] = rules[len(rules)-1]
					rules = rules[:len(rules)-1]
					break
				}
			}
			if len(rules) == 0 {
				delete(byVal, key)
			} else {
				byVal[key] = rules
			}
		}
		return
	}
	for _, rp := range r.pred.RangePreds {
		if _, _, ok := rp.NumericBounds(); !ok {
			continue
		}
		if ix, exists := e.rangeIndex[rp.Field]; exists {
			ix.remove(r)
		}
	}
}

// Match returns the rules whose conditions the event satisfies, ordered
// by (priority desc, name). The returned slice is caller-owned. Hot
// loops should hold a Matcher instead; Match borrows one from the
// engine's pool, so even the one-shot path stays cheap under repeated
// calls.
func (e *Engine) Match(r expr.Resolver) ([]*Rule, error) {
	m := e.matcherPool.Get().(*Matcher)
	scratch, err := m.Match(r)
	var out []*Rule
	if len(scratch) > 0 {
		out = append(out, scratch...)
	}
	e.matcherPool.Put(m)
	return out, err
}

// matchInto is the matching core shared by Match and Matcher. m carries
// the caller-owned scratch (candidate counters, key buffer); matched
// rules are appended to out and returned.
//
// Candidate counting is epoch-stamped: each Match bumps m.epoch, and a
// counter from an earlier epoch reads as zero, so the counts map is
// never cleared — the per-event cost is O(candidates), not O(map).
func (e *Engine) matchInto(r expr.Resolver, m *Matcher, out []*Rule) ([]*Rule, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	confirm := func(rule *Rule) error {
		ok, err := rule.pred.Match(r)
		if err != nil {
			return fmt.Errorf("rules: %q: %w", rule.Name, err)
		}
		if ok {
			out = append(out, rule)
		}
		return nil
	}
	m.epoch++
	m.cands = m.cands[:0]
	// Stale-entry bound: rules removed from the engine stay in the
	// counts map as inert epoch-stamped entries. Under heavy rule churn
	// that would pin dead rules and grow without limit, so reset the
	// map when it clearly outnumbers the live set.
	if len(m.counts) > 2*len(e.rules)+64 {
		clear(m.counts)
	}
	bump := func(rule *Rule) {
		h := m.counts[rule]
		if h.epoch != m.epoch {
			h = hitCount{epoch: m.epoch}
			m.cands = append(m.cands, rule)
		}
		h.n++
		m.counts[rule] = h
	}
	// Equality probes: for every indexed field, the event's value picks
	// up the rules anchored on it. The key encodes into the matcher's
	// reused buffer; the string conversion inside the map index does
	// not allocate.
	for field, byVal := range e.eqIndex {
		v, ok := r.Get(field)
		if !ok || v.IsNull() {
			continue
		}
		m.keyBuf = val.AppendKey(m.keyBuf[:0], v)
		for _, rule := range byVal[string(m.keyBuf)] {
			bump(rule)
		}
	}
	// Range probes.
	for field, ix := range e.rangeIndex {
		v, ok := r.Get(field)
		if !ok {
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		ix.stab(f, bump)
	}
	for _, rule := range m.cands {
		if m.counts[rule].n == rule.nIndexed {
			if err := confirm(rule); err != nil {
				return nil, err
			}
		}
	}
	for _, rule := range e.residual {
		if err := confirm(rule); err != nil {
			return nil, err
		}
	}
	sortRules(out)
	return out, nil
}

// hitCount is one epoch-stamped candidate counter: n is meaningful
// only when epoch matches the matcher's current epoch, which is how
// the per-event path avoids clearing the map.
type hitCount struct {
	epoch uint64
	n     int
}

// Matcher carries reusable scratch (epoch-stamped candidate counters,
// key-encoding buffer, candidate and result slices) for repeated
// matching, so a hot ingest loop amortizes its per-event allocations
// to zero. A Matcher is not safe for concurrent use; create one per
// goroutine — the engine itself remains safe to share.
type Matcher struct {
	e      *Engine
	epoch  uint64
	counts map[*Rule]hitCount
	cands  []*Rule
	keyBuf []byte
	out    []*Rule
}

// NewMatcher creates a Matcher bound to the engine's live rule set.
func (e *Engine) NewMatcher() *Matcher {
	return &Matcher{e: e, counts: make(map[*Rule]hitCount)}
}

// Match is Engine.Match with scratch reuse. The returned slice is
// owned by the Matcher and only valid until the next Match/Eval call.
func (m *Matcher) Match(r expr.Resolver) ([]*Rule, error) {
	out, err := m.e.matchInto(r, m, m.out[:0])
	if out != nil {
		m.out = out
	}
	return out, err
}

// Eval matches the event and runs each matching rule's action in
// priority order, returning how many rules fired.
func (m *Matcher) Eval(ev *event.Event) (int, error) {
	matched, err := m.Match(ev)
	if err != nil {
		return 0, err
	}
	for _, r := range matched {
		if r.Action != nil {
			r.Action(ev, r)
		}
	}
	return len(matched), nil
}

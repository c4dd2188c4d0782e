// Package rules implements the rules engine of §2.2.c: large sets of
// condition→action rules evaluated against every event.
//
// The engine treats rule conditions as data (§2.2.c.i.2): each
// condition's atoms (field = literal, field ranges) are filed in an
// attribute Index, so matching an event costs roughly
// O(attributes + candidates) instead of O(rules). This is the mechanism
// behind the paper's scalability claims for "large rule sets" and
// "frequently changing rules sets": adding, removing or replacing a
// rule touches only that rule's index entries. Index is the one index
// of standing conditions: pubsub's subscriptions are rules of an
// Engine, and cep files its automaton's edges in it too.
//
// A rule stores its condition's standing form (expr.Predicate.Standing):
// its atoms, and its tree only where the atoms are not all of it.
// Matching uses the classic counting algorithm; its candidates (plus
// rules with no indexable conjunct) are confirmed against the
// condition's atoms, or its tree where atoms do not decide it, so
// indexing is a pure optimization and never changes results, but for a
// NaN event value (TestNaNIsAnIndexMiss).
package rules

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"eventdb/internal/event"
	"eventdb/internal/expr"
)

// Action runs when a rule matches an event.
type Action func(ev *event.Event, r *Rule)

// Rule is one condition→action rule.
type Rule struct {
	Name string

	// The condition's standing form, guarded by the engine's lock
	// (Replace swaps it): its atoms; the predicate itself only when it
	// has a tree, which the atoms are not all of; and otherwise its
	// source, unless it kept none. A detached atoms-only condition, every
	// wire SUB's (expr.Predicate.Detach), is its atoms alone.
	atoms    []expr.Atom
	tree     *expr.Predicate
	src      *string
	handle   any   // Add's Action, or Install's handle
	Priority int32 // higher runs first
	removed  atomic.Bool
}

// setCond stores cond's standing form in r.
func (r *Rule) setCond(cond *expr.Predicate) {
	s := cond.Standing()
	r.atoms, r.tree, r.src = s.Atoms, nil, nil
	if s.Root != nil {
		r.tree = s
	} else if s.Source != "" {
		src := s.Source
		r.src = &src
	}
}

// source is the source of r's condition, "" when it kept none.
func (r *Rule) source() string {
	switch {
	case r.tree != nil:
		return r.tree.Source
	case r.src != nil:
		return *r.src
	}
	return ""
}

// cond returns r's condition as a predicate: its tree, or its atoms in
// the caller's scratch p.
func (r *Rule) cond(p *expr.Predicate) *expr.Predicate {
	if r.tree != nil {
		return r.tree
	}
	*p = expr.Predicate{Atoms: r.atoms}
	return p
}

// Handle returns the value Install gave the rule, or the Action Add
// gave it, and nil once the rule is removed, so that a match taken
// before a Remove reaches nothing through it after.
func (r *Rule) Handle() any {
	if r.removed.Load() {
		return nil
	}
	return r.handle
}

// Engine holds a mutable rule set and matches events against it: its
// name map, one Index over the rules' conditions, and the residual
// rules the index cannot file.
type Engine struct {
	mu    sync.RWMutex
	rules map[string]*Rule
	index Index[*Rule]
	// residual: rules with no indexable conjunct, always fully evaluated,
	// held in (priority desc, name) order so that their matches need no
	// sort.
	residual []*Rule

	// matcherPool recycles match scratch for the one-shot Match entry
	// point, so callers without a dedicated Matcher still match
	// allocation-free in the steady state.
	matcherPool sync.Pool
}

// NewEngine creates a rules engine.
func NewEngine() *Engine {
	e := &Engine{rules: make(map[string]*Rule)}
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
// Remove it first, or Replace its condition. A priority is an int32.
func (e *Engine) Add(name, condition string, priority int, action Action) (*Rule, error) {
	pred, err := expr.Compile(condition)
	if err == nil && int(int32(priority)) != priority {
		err = fmt.Errorf("priority %d out of range", priority)
	}
	if err != nil {
		return nil, fmt.Errorf("rules: %q: %w", name, err)
	}
	return e.add(&Rule{Name: name, Priority: int32(priority), handle: action}, pred)
}

// Install adds a rule with a compiled condition and priority 0,
// carrying handle: its installer's own value, which a match hands back
// with no lookup by name (pubsub's is where the match goes).
func (e *Engine) Install(name string, cond *expr.Predicate, handle any) error {
	_, err := e.add(&Rule{Name: name, handle: handle}, cond)
	return err
}

func (e *Engine) add(r *Rule, pred *expr.Predicate) (*Rule, error) {
	if r.Name == "" {
		return nil, errors.New("rules: empty rule name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.Name]; dup {
		return nil, fmt.Errorf("rules: %q already exists", r.Name)
	}
	e.rules[r.Name] = r
	r.setCond(pred)
	e.fileLocked(r)
	return r, nil
}

// Replace swaps a rule's condition in one step: a match sees the old
// condition or the new one, never neither, and the rule keeps its
// identity and handle.
func (e *Engine) Replace(name string, cond *expr.Predicate) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	if r.source() == cond.Source {
		return nil
	}
	e.unfileLocked(r)
	r.setCond(cond)
	e.fileLocked(r)
	return nil
}

// Lookup returns the source of a rule's condition and its handle.
func (e *Engine) Lookup(name string) (cond string, handle any, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.rules[name]
	if !ok {
		return "", nil, false
	}
	return r.source(), r.handle, true
}

// Remove uninstalls a rule; from then on its Handle is nil.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	e.removeLocked(r)
	return nil
}

// RemovePrefix removes, as Remove does, every rule named with prefix.
func (e *Engine) RemovePrefix(prefix string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, r := range e.rules {
		if strings.HasPrefix(name, prefix) {
			e.removeLocked(r)
		}
	}
}

func (e *Engine) removeLocked(r *Rule) {
	delete(e.rules, r.Name)
	e.unfileLocked(r)
	r.removed.Store(true)
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
// sort.Slice: the former is allocation-free, and this runs on the
// publish hot path whenever several indexed rules match one event.
func sortRules(rs []*Rule) { slices.SortFunc(rs, compareRules) }

// compareRules is the (priority desc, name) order; names are unique, so
// no two rules of an engine compare equal.
func compareRules(a, b *Rule) int {
	if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.Name, b.Name)
}

// fileLocked files a rule in the index, or among the residual rules if
// the index files none of its conjuncts.
func (e *Engine) fileLocked(r *Rule) {
	var p expr.Predicate
	if e.index.Add(r, r.cond(&p)) == 0 {
		i, _ := slices.BinarySearchFunc(e.residual, r, compareRules)
		e.residual = slices.Insert(e.residual, i, r)
	}
}

// unfileLocked undoes fileLocked.
func (e *Engine) unfileLocked(r *Rule) {
	var p expr.Predicate
	if e.index.Remove(r, r.cond(&p)) > 0 {
		return
	}
	if i, ok := slices.BinarySearchFunc(e.residual, r, compareRules); ok {
		e.residual = slices.Delete(e.residual, i, i+1)
	}
}

// Match returns the rules whose conditions the event satisfies, ordered
// by (priority desc, name). The returned slice is caller-owned. Hot
// loops should hold a Matcher instead; Match borrows one from the
// engine's pool, so even the one-shot path stays cheap under repeated
// calls.
func (e *Engine) Match(r expr.Resolver) ([]*Rule, error) {
	m := e.matcherPool.Get().(*Matcher)
	defer e.matcherPool.Put(m)
	out, err := m.Match(r)
	return slices.Clone(out), err
}

// holds evaluates the rule's whole condition against r.
func (rule *Rule) holds(r expr.Resolver) (bool, error) {
	var p expr.Predicate
	ok, err := rule.cond(&p).Match(r)
	if err != nil {
		return false, fmt.Errorf("rules: %q: %w", rule.Name, err)
	}
	return ok, nil
}

// Matcher carries reusable scratch (the index probe and the result
// slice) for repeated matching, so a hot ingest loop amortizes its
// per-event allocations to zero. A Matcher is not safe for concurrent
// use; create one per goroutine — the engine itself remains safe to
// share.
type Matcher struct {
	e     *Engine
	probe Probe[*Rule]
	out   []*Rule
}

// NewMatcher creates a Matcher bound to the engine's live rule set.
func (e *Engine) NewMatcher() *Matcher { return &Matcher{e: e} }

// Match is Engine.Match with scratch reuse. The returned slice is
// owned by the Matcher and only valid until the next Match/Eval call.
//
// The index's candidates, then the residual rules, are confirmed by
// full predicate evaluation; the residual ones arrive in order, so only
// several indexed matches, or indexed and residual ones together, need
// sorting.
func (m *Matcher) Match(r expr.Resolver) ([]*Rule, error) {
	m.e.mu.RLock()
	defer m.e.mu.RUnlock()
	out := m.e.index.Match(r, &m.probe, m.out[:0])
	indexed := 0
	for _, rule := range out {
		if ok, err := rule.holds(r); err != nil {
			return nil, err
		} else if ok {
			out[indexed] = rule
			indexed++
		}
	}
	clear(out[indexed:]) // the scratch must not pin rules it rejected
	out = out[:indexed]
	for _, rule := range m.e.residual {
		if ok, err := rule.holds(r); err != nil {
			return nil, err
		} else if ok {
			out = append(out, rule)
		}
	}
	m.out = out
	if indexed > 1 || indexed == 1 && len(out) > 1 {
		sortRules(out)
	}
	return out, nil
}

// Eval matches the event and runs each matching rule's action in
// priority order, returning how many rules fired.
func (m *Matcher) Eval(ev *event.Event) (int, error) {
	matched, err := m.Match(ev)
	if err != nil {
		return 0, err
	}
	for _, r := range matched {
		if a, ok := r.Handle().(Action); ok && a != nil {
			a(ev, r)
		}
	}
	return len(matched), nil
}

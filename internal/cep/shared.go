// Shared-automaton pattern matching: the whole registered pattern set
// compiles into one NFA instead of one matcher per pattern, so per-event
// cost scales with matching work rather than pattern count — the CEP
// analog of the indexed flat-predicate matcher in internal/rules.
//
// Structure. Patterns with the same strategy share a prefix trie: a
// trie edge is one positive step plus the negated steps guarding it,
// and two patterns share a node exactly when their step sequences agree
// up to that point (alias, type, guard source, and negations all
// included in the edge signature). A partial match is one *instance*
// parked at a node; it stands in for one partial run of every pattern
// whose path passes through that node, so a prefix shared by a thousand
// patterns is tracked once, not a thousand times.
//
// Indexing. A node with two or more outgoing edges files them by event
// type, and within a type in a rules.Index (the rules engine's and
// pub/sub's) under the guard's atoms over the current event's own
// fields — never `a.x = 1`, which names a binding — so an event only
// touches edges its type and attributes could advance; a node with one
// keeps no index, and its edge is a candidate when its type fits. Nodes
// holding live instances register in a wake index keyed by the event
// types relevant to them; all other nodes are never visited. Edges and
// nodes are windows on the Steps of the pattern that made them, and a
// guard that keeps its parse tree (`cid = a.cid`) is shared by source.
//
// Expiry. Every instance carries a deadline — its start time plus the
// largest WITHIN among patterns reachable from its node — kept in a
// timer heap, so pruning is O(log n) pops instead of a per-event sweep.
// The heap deadline is conservative (a shared node's horizon is the max
// over its patterns); exact per-pattern WITHIN is enforced when a match
// is emitted, which is what makes match output identical to independent
// per-pattern matchers.
//
// Semantics relative to a matcher per pattern (the oracle in
// oracle_test.go; pinned by the differential tests):
//
//   - SkipTillNext "consumes" a run when it advances: the shared form
//     blocks the advanced edge on the parent instance, so other
//     patterns sharing the node keep waiting while that one cannot
//     spuriously re-advance.
//   - A negated step firing kills only the runs waiting on its edge —
//     again a per-edge block, not instance death.
//   - Strict consumes the instance entirely: matching edges fork
//     children, then the parent dies.
//   - Patterns registered after an instance started cannot claim it
//     (registration sequence gating), matching the fact that a fresh
//     per-pattern matcher starts with no runs.
//
// Zero-alloc feed. Instances and their binding slices are pooled,
// per-feed scratch (candidate edges, wake-node list, index probe) is
// reused, and new instances are epoch-stamped so the creating event
// never re-feeds them. An event that advances nothing allocates
// nothing; CI pins this with AllocsPerRun.
package cep

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/rules"
	"eventdb/internal/val"
)

// defaultMaxInstances caps live partial matches across all patterns.
const defaultMaxInstances = 1 << 20

// Shared is a single automaton over many registered patterns. Not safe
// for concurrent use; wrap with a mutex (internal/core does).
type Shared struct {
	// MaxInstances caps simultaneous partial matches across every
	// pattern; the oldest instance is dropped beyond it (SkipTillAny can
	// fork combinatorially). Default 1<<20.
	MaxInstances int

	roots    [3]*node // one prefix trie per strategy
	patterns map[string]*patEntry
	guards   map[string]sharedGuard // the guards that keep their tree, by source
	seq      uint64                 // registration sequence, gates new patterns off old instances
	epoch    uint64                 // feed sequence, keeps the creating event off new instances

	// wake maps an event type to the nodes holding instances that type
	// could advance or kill; wakeAny holds nodes relevant to every type
	// (strict nodes, any-type steps). Inner maps are retained when
	// emptied so steady-state churn stays allocation-free.
	wake    map[string]map[*node]struct{}
	wakeAny map[*node]struct{}

	timers deadlineHeap

	// Global age list (creation order) for MaxInstances eviction.
	oldest, newest *instance
	ninst          int

	pool []*instance

	matches     []*Match
	nodeScratch []*node
	candScratch []*edge
	negScratch  []*edge
	probe       rules.Probe[*edge]
	res         sharedResolver

	matchCount uint64
	pruned     uint64
	dropped    uint64
}

// NewShared creates an empty shared automaton.
func NewShared() *Shared {
	return &Shared{
		MaxInstances: defaultMaxInstances,
		roots:        [3]*node{{strategy: SkipTillNext}, {strategy: SkipTillAny}, {strategy: Strict}},
		patterns:     make(map[string]*patEntry),
		guards:       make(map[string]sharedGuard),
		wake:         make(map[string]map[*node]struct{}),
		wakeAny:      make(map[*node]struct{}),
	}
}

// SharedStats is a point-in-time counter snapshot.
type SharedStats struct {
	Patterns  int    // registered patterns
	Instances int    // live partial matches
	Matches   uint64 // matches emitted since creation
	Pruned    uint64 // instances expired by the WITHIN horizon
	Dropped   uint64 // instances evicted by MaxInstances
}

// Stats reports registration and matching counters.
func (s *Shared) Stats() SharedStats {
	return SharedStats{
		Patterns:  len(s.patterns),
		Instances: s.ninst,
		Matches:   s.matchCount,
		Pruned:    s.pruned,
		Dropped:   s.dropped,
	}
}

// Pattern returns the registered pattern of that name.
func (s *Shared) Pattern(name string) (*Pattern, bool) {
	ent, ok := s.patterns[name]
	if !ok {
		return nil, false
	}
	return ent.p, true
}

// Names returns the registered patterns' names, sorted.
func (s *Shared) Names() []string {
	names := make([]string, 0, len(s.patterns))
	for name := range s.patterns {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// node is one trie state: the set of (strategy, step-prefix) classes a
// partial match can be in.
type node struct {
	strategy Strategy
	// path is the steps on the way here, a window on the Steps of the
	// pattern that made the node: its positive steps name the bindings.
	path []Step

	edges []*edge
	ix    *nodeIndex // nil below two edges

	accepts []*patEntry // patterns completed on arrival here

	npat      int           // patterns whose path passes through (for Remove)
	maxWithin time.Duration // largest bounded WITHIN among them
	unbounded int           // of which, patterns with no WITHIN

	head  *instance // live instances parked here
	ninst int

	inWake     bool
	wakeAnyReg bool
	wakeKeys   []string
}

// nodeIndex files the edges of a node that has two or more.
type nodeIndex struct {
	bySig    map[string]*edge
	byType   map[string]*bucket // positive-step type ("" for any) → candidate edges
	anyType  *bucket            // byType[""], kept to spare each feed its lookup
	negEdges []*edge            // edges carrying negated steps
}

// edge is one trie transition: a positive step plus the negated steps
// that guard the wait for it.
type edge struct {
	from, to *node
	seg      []Step // negated steps, then the positive one: a window as path is

}

// step and negs are the edge's positive step and its negated ones.
func (e *edge) step() *Step  { return &e.seg[len(e.seg)-1] }
func (e *edge) negs() []Step { return e.seg[:len(e.seg)-1] }

// sharedGuard is one compilation of a guard that keeps its parse tree,
// and how many registered steps use it.
type sharedGuard struct {
	p    *expr.Predicate
	refs int
}

// bucket indexes one (node, event type)'s candidate edges: the index
// holds those with a filed guard atom, scan the rest.
type bucket struct {
	ix   rules.Index[*edge]
	scan []*edge
}

// patEntry is one registered pattern's place in the trie.
type patEntry struct {
	p     *Pattern
	seq   uint64
	edges []*edge // path, one per positive step; edges[i].to is its node
}

// instance is one live partial match, standing in for a partial run of
// every pattern reachable from its node.
type instance struct {
	node     *node
	bindings []*event.Event // one per positive step taken
	start    time.Time
	deadline time.Time
	seq      uint64  // registration watermark at birth
	born     uint64  // feed epoch at creation
	blocked  []*edge // consumed (SkipTillNext) or killed (negation) edges
	heapIdx  int     // -1 when not in the timer heap

	prev, next   *instance // node membership list
	gprev, gnext *instance // global age list
}

// Add registers a built pattern, sharing trie prefixes with already
// registered patterns of the same strategy.
func (s *Shared) Add(p *Pattern) error {
	if p == nil || len(p.positive) == 0 {
		return errors.New("cep: pattern must come from Builder.Build")
	}
	if _, dup := s.patterns[p.Name]; dup {
		return fmt.Errorf("cep: pattern %q already registered", p.Name)
	}
	s.seq++
	ent := &patEntry{p: p, seq: s.seq, edges: make([]*edge, 0, len(p.positive))}
	s.shareGuards(p, 1)
	n := s.roots[p.Strategy]
	for k, si := range p.positive {
		lo := 0
		if k > 0 {
			lo = p.positive[k-1] + 1
		}
		seg := p.Steps[lo : si+1 : si+1]
		e := n.edgeFor(seg)
		if e == nil {
			e = &edge{from: n, seg: seg, to: &node{strategy: n.strategy, path: p.Steps[: si+1 : si+1]}}
			n.linkEdge(e)
			s.refreshWake(n)
		}
		n = e.to
		n.npat++
		if p.Within <= 0 {
			n.unbounded++
		} else if p.Within > n.maxWithin {
			n.maxWithin = p.Within
		}
		ent.edges = append(ent.edges, e)
	}
	n.accepts = append(n.accepts, ent)
	s.patterns[p.Name] = ent
	return nil
}

// Remove unregisters a pattern, unlinking trie suffixes it no longer
// shares and freeing their instances.
func (s *Shared) Remove(name string) error {
	ent, ok := s.patterns[name]
	if !ok {
		return fmt.Errorf("cep: no pattern %q", name)
	}
	delete(s.patterns, name)
	s.shareGuards(ent.p, -1)
	term := ent.edges[len(ent.edges)-1].to
	term.accepts = slices.DeleteFunc(term.accepts, func(pe *patEntry) bool { return pe == ent })
	for i := len(ent.edges) - 1; i >= 0; i-- {
		n := ent.edges[i].to
		n.npat--
		if ent.p.Within <= 0 {
			n.unbounded--
		}
		// maxWithin is deliberately not recomputed: a stale-large horizon
		// only delays pruning, and exact WITHIN is enforced at emit time.
		if n.npat == 0 {
			for n.head != nil {
				s.freeInstance(n.head)
			}
			s.unlinkEdge(ent.edges[i])
		}
	}
	return nil
}

// segmentSig renders one trie-edge signature: the negated steps then the
// positive step, each as (negated, alias, type, guard source). Patterns
// share an edge exactly when these agree.
func segmentSig(steps []Step) string {
	var b strings.Builder
	for i := range steps {
		st := &steps[i]
		if st.Negated {
			b.WriteByte('!')
		}
		b.WriteString(st.Alias)
		b.WriteByte(0x1f)
		b.WriteString(st.EventType)
		b.WriteByte(0x1f)
		b.WriteString(st.Guard)
		b.WriteByte(0x1e)
	}
	return b.String()
}

// shareGuards points each step of an added pattern (d = 1) whose guard
// keeps its parse tree at the automaton's one compilation of its source,
// and lets a removed one's go (d = -1).
func (s *Shared) shareGuards(p *Pattern, d int) {
	for i := range p.Steps {
		if st := &p.Steps[i]; st.guard != nil && st.guard.Root != nil {
			g, ok := s.guards[st.Guard]
			if !ok {
				g.p = st.guard
			}
			if st.guard, g.refs = g.p, g.refs+d; g.refs == 0 {
				delete(s.guards, st.Guard)
			} else {
				s.guards[st.Guard] = g
			}
		}
	}
}

// edgeFor returns the edge of n whose signature seg has, if any.
func (n *node) edgeFor(seg []Step) *edge {
	if n.ix != nil {
		return n.ix.bySig[segmentSig(seg)]
	}
	if len(n.edges) == 1 && segmentSig(n.edges[0].seg) == segmentSig(seg) {
		return n.edges[0]
	}
	return nil
}

// linkEdge adds an edge to its node, building the node's index at its
// second edge.
func (n *node) linkEdge(e *edge) {
	if n.edges = append(n.edges, e); len(n.edges) == 2 {
		n.ix = &nodeIndex{bySig: make(map[string]*edge), byType: make(map[string]*bucket)}
		n.ix.file(n.edges[0])
	}
	if n.ix != nil {
		n.ix.file(e)
	}
}

// file files an edge under the index's type/predicate buckets.
func (ix *nodeIndex) file(e *edge) {
	ix.bySig[segmentSig(e.seg)] = e
	if len(e.seg) > 1 {
		ix.negEdges = append(ix.negEdges, e)
	}
	t := e.step().EventType
	b := ix.byType[t]
	if b == nil {
		b = &bucket{ix: rules.Index[*edge]{BareFields: true}}
		ix.byType[t] = b
		ix.anyType = ix.byType[""]
	}
	if b.ix.Add(e, e.step().guard) == 0 {
		b.scan = append(b.scan, e)
	}
}

// unfile undoes file.
func (ix *nodeIndex) unfile(e *edge) {
	is := func(x *edge) bool { return x == e }
	delete(ix.bySig, segmentSig(e.seg))
	ix.negEdges = slices.DeleteFunc(ix.negEdges, is)
	t := e.step().EventType
	if b := ix.byType[t]; b != nil {
		if b.ix.Remove(e, e.step().guard) == 0 {
			b.scan = slices.DeleteFunc(b.scan, is)
		}
		if b.ix.Len() == 0 && len(b.scan) == 0 {
			delete(ix.byType, t)
			ix.anyType = ix.byType[""]
		}
	}
}

// unlinkEdge removes an edge (whose subtree is pattern-free) from its
// parent's edges and index, dropping the index when one edge is left,
// and purges stale blocked refs.
func (s *Shared) unlinkEdge(e *edge) {
	n := e.from
	is := func(x *edge) bool { return x == e }
	n.edges = slices.DeleteFunc(n.edges, is)
	if len(n.edges) < 2 {
		n.ix = nil
	} else {
		n.ix.unfile(e)
	}
	s.refreshWake(n)
	inst := n.head
	for inst != nil {
		next := inst.next
		inst.blocked = slices.DeleteFunc(inst.blocked, is)
		if len(inst.blocked) == len(n.edges) {
			s.freeInstance(inst) // nothing left it could ever advance
		}
		inst = next
	}
}

// refreshWake recomputes which event types are relevant to a node and,
// if it holds instances, re-registers it in the wake index.
func (s *Shared) refreshWake(n *node) {
	live := n.inWake
	if live {
		s.dropWake(n)
	}
	if live || n.ninst > 0 {
		s.addWake(n)
	}
}

func (s *Shared) addWake(n *node) {
	n.wakeKeys = n.wakeKeys[:0]
	n.wakeAnyReg = n.strategy == Strict // strict instances react to every event
	for _, e := range n.edges {
		if n.wakeAnyReg {
			break
		}
		n.noteWakeType(e.step().EventType)
		for _, ng := range e.negs() {
			n.noteWakeType(ng.EventType)
		}
	}
	if n.wakeAnyReg {
		s.wakeAny[n] = struct{}{}
	} else {
		for _, t := range n.wakeKeys {
			m := s.wake[t]
			if m == nil {
				m = make(map[*node]struct{})
				s.wake[t] = m
			}
			m[n] = struct{}{}
		}
	}
	n.inWake = true
}

func (s *Shared) dropWake(n *node) {
	if !n.inWake {
		return
	}
	if n.wakeAnyReg {
		delete(s.wakeAny, n)
	} else {
		for _, t := range n.wakeKeys {
			delete(s.wake[t], n)
		}
	}
	n.inWake = false
}

// noteWakeType records one relevant event type, collapsing to the
// any-type registration on a wildcard. Allocation-free after the
// wakeKeys slice has warmed (wake registration happens on the feed hot
// path whenever a node gains its first instance).
func (n *node) noteWakeType(t string) {
	if n.wakeAnyReg {
		return
	}
	if t == "" {
		n.wakeAnyReg = true
		n.wakeKeys = n.wakeKeys[:0]
		return
	}
	if !slices.Contains(n.wakeKeys, t) {
		n.wakeKeys = append(n.wakeKeys, t)
	}
}

// Advance prunes instances whose conservative WITHIN horizon has passed
// as of now, returning how many were freed. Feed calls it with each
// event's time; an engine clock should call it on quiet streams so dead
// partials don't pin memory.
func (s *Shared) Advance(now time.Time) int {
	pruned := 0
	for len(s.timers) > 0 && s.timers[0].deadline.Before(now) {
		s.freeInstance(s.timers[0])
		pruned++
	}
	s.pruned += uint64(pruned)
	return pruned
}

// Feed processes one event against every registered pattern and returns
// the matches it completed. Events must arrive in nondecreasing time
// order for WITHIN semantics. The returned slice is reused by the next
// Feed call.
func (s *Shared) Feed(ev *event.Event) []*Match {
	s.epoch++
	s.Advance(ev.Time)
	s.matches = s.matches[:0]
	if s.ninst > 0 {
		// Snapshot the woken nodes first: feeding mutates the wake sets
		// (emptied nodes deregister, children register).
		s.nodeScratch = s.nodeScratch[:0]
		for n := range s.wake[ev.Type] {
			s.nodeScratch = append(s.nodeScratch, n)
		}
		for n := range s.wakeAny {
			s.nodeScratch = append(s.nodeScratch, n)
		}
		for _, n := range s.nodeScratch {
			s.feedNode(n, ev)
		}
	}
	for _, r := range s.roots {
		if len(r.edges) > 0 {
			s.startRuns(r, ev)
		}
	}
	// Cap eviction is deferred to here so freeing the oldest instance
	// can never invalidate a node list mid-iteration above.
	for s.MaxInstances > 0 && s.ninst > s.MaxInstances {
		s.dropped++
		s.freeInstance(s.oldest)
	}
	s.matchCount += uint64(len(s.matches))
	return s.matches
}

// candidates collects the edges of n that ev's type and indexed
// attributes could advance, into the reused candScratch: a one-edge
// node's edge if its type fits, else those of the bucket of its type,
// then those of the any-type bucket.
func (s *Shared) candidates(n *node, ev *event.Event) []*edge {
	cands := s.candScratch[:0]
	if n.ix == nil {
		for _, e := range n.edges {
			if t := e.step().EventType; t == "" || t == ev.Type {
				cands = append(cands, e)
			}
		}
		s.candScratch = cands
		return cands
	}
	for _, b := range [2]*bucket{n.ix.byType[ev.Type], n.ix.anyType} {
		if b != nil {
			cands = append(b.ix.Match(ev, &s.probe, cands), b.scan...)
		}
		if ev.Type == "" {
			break // its own bucket was the any-type one
		}
	}
	s.candScratch = cands
	return cands
}

func (s *Shared) feedNode(n *node, ev *event.Event) {
	if n.ninst == 0 {
		return
	}
	cands := s.candidates(n, ev)
	negs := s.negScratch[:0]
	negEdges := n.edges // one at most, and an edge with no negated step adds none
	if n.ix != nil {
		negEdges = n.ix.negEdges
	}
	for _, e := range negEdges {
		for _, ng := range e.negs() {
			if ng.EventType == "" || ng.EventType == ev.Type {
				negs = append(negs, e)
				break
			}
		}
	}
	s.negScratch = negs
	strict := n.strategy == Strict
	if len(cands) == 0 && len(negs) == 0 && !strict {
		return
	}
	inst := n.head
	for inst != nil {
		next := inst.next // feedInstance may free inst
		if inst.born != s.epoch {
			s.feedInstance(n, inst, ev, cands, negs, strict)
		}
		inst = next
	}
}

func (s *Shared) feedInstance(n *node, inst *instance, ev *event.Event, cands, negs []*edge, strict bool) {
	// Negated steps first: killing an edge suppresses its advance on
	// this same event, exactly as the oracle checks negation before the
	// positive step.
	for _, e := range negs {
		if slices.Contains(inst.blocked, e) {
			continue
		}
		for _, ng := range e.negs() {
			if ng.EventType != "" && ng.EventType != ev.Type {
				continue
			}
			if ng.guard != nil && !s.guardOK(ng.guard, n, inst.bindings, ev) {
				continue
			}
			inst.blocked = append(inst.blocked, e)
			break
		}
	}
	for _, e := range cands {
		if slices.Contains(inst.blocked, e) {
			continue
		}
		if g := e.step().guard; g != nil && !s.guardOK(g, n, inst.bindings, ev) {
			continue
		}
		s.spawn(e, inst.bindings, inst.start, inst.seq, ev)
		if n.strategy == SkipTillNext {
			// Consumed: the runs waiting on this edge advanced into the
			// child; the parent stays only for its other edges.
			inst.blocked = append(inst.blocked, e)
		}
	}
	if strict {
		// Every waiting run either advanced (child spawned) or died on
		// the contiguity violation; the parent is finished either way.
		s.freeInstance(inst)
		return
	}
	if len(inst.blocked) == len(n.edges) {
		s.freeInstance(inst)
	}
}

// startRuns tries to start new runs at a strategy root, one instance
// per matching first step.
func (s *Shared) startRuns(root *node, ev *event.Event) {
	for _, e := range s.candidates(root, ev) {
		if g := e.step().guard; g != nil && !s.guardOK(g, root, nil, ev) {
			continue
		}
		s.spawn(e, nil, ev.Time, s.seq, ev)
	}
}

// spawn advances along an edge: emits matches for patterns accepted at
// the target (exact WITHIN enforced here) and, if the target has
// further steps, parks a pooled child instance there.
func (s *Shared) spawn(e *edge, parent []*event.Event, start time.Time, seq uint64, ev *event.Event) {
	to := e.to
	for _, pe := range to.accepts {
		if pe.seq > seq {
			continue // registered after this run started
		}
		if pe.p.Within > 0 && ev.Time.Sub(start) > pe.p.Within {
			continue
		}
		b := make(map[string]*event.Event, len(parent)+1)
		i := 0
		for k := range to.path {
			if st := &to.path[k]; !st.Negated {
				if i < len(parent) {
					b[st.Alias] = parent[i]
				} else {
					b[st.Alias] = ev
				}
				i++
			}
		}
		s.matches = append(s.matches, &Match{Pattern: pe.p.Name, Bindings: b, Start: start, End: ev.Time})
	}
	if len(to.edges) == 0 {
		return // terminal state: nothing further to wait for
	}
	inst := s.alloc()
	inst.bindings = append(append(inst.bindings, parent...), ev)
	inst.start = start
	inst.seq = seq
	inst.born = s.epoch
	s.attachInstance(inst, to)
}

func (s *Shared) alloc() *instance {
	if k := len(s.pool); k > 0 {
		inst := s.pool[k-1]
		s.pool = s.pool[:k-1]
		return inst
	}
	return &instance{heapIdx: -1}
}

func (s *Shared) attachInstance(inst *instance, n *node) {
	inst.node = n
	inst.prev = nil
	inst.next = n.head
	if n.head != nil {
		n.head.prev = inst
	}
	n.head = inst
	n.ninst++
	if n.ninst == 1 && !n.inWake {
		s.addWake(n)
	}
	inst.gprev = s.newest
	inst.gnext = nil
	if s.newest != nil {
		s.newest.gnext = inst
	} else {
		s.oldest = inst
	}
	s.newest = inst
	s.ninst++
	if n.unbounded == 0 && n.maxWithin > 0 {
		inst.deadline = inst.start.Add(n.maxWithin)
		heap.Push(&s.timers, inst)
	}
}

func (s *Shared) freeInstance(inst *instance) {
	n := inst.node
	if inst.prev != nil {
		inst.prev.next = inst.next
	} else {
		n.head = inst.next
	}
	if inst.next != nil {
		inst.next.prev = inst.prev
	}
	n.ninst--
	if n.ninst == 0 {
		s.dropWake(n)
	}
	if inst.gprev != nil {
		inst.gprev.gnext = inst.gnext
	} else {
		s.oldest = inst.gnext
	}
	if inst.gnext != nil {
		inst.gnext.gprev = inst.gprev
	}
	s.ninst--
	if inst.heapIdx >= 0 {
		heap.Remove(&s.timers, inst.heapIdx)
	}
	inst.node = nil
	inst.prev, inst.next, inst.gprev, inst.gnext = nil, nil, nil, nil
	clear(inst.bindings) // don't pin events from the pool
	inst.bindings = inst.bindings[:0]
	clear(inst.blocked)
	inst.blocked = inst.blocked[:0]
	inst.heapIdx = -1
	s.pool = append(s.pool, inst)
}

func (s *Shared) guardOK(g *expr.Predicate, n *node, bindings []*event.Event, ev *event.Event) bool {
	s.res.path = n.path
	s.res.bindings = bindings
	s.res.current = ev
	ok, err := g.Match(&s.res)
	return err == nil && ok
}

// sharedResolver resolves guard names: "alias.attr" against bound
// steps, bare names (plus $-envelope fields) against the current event,
// unbound aliases (a step's guard naming itself) falling through to the
// current event.
type sharedResolver struct {
	path     []Step // the node's: its positive steps' aliases name bindings
	bindings []*event.Event
	current  *event.Event
}

func (r *sharedResolver) Get(name string) (val.Value, bool) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		alias, attr := name[:i], name[i+1:]
		bi := 0
		for k := range r.path {
			st := &r.path[k]
			if st.Negated {
				continue
			}
			if bi >= len(r.bindings) {
				break
			}
			if st.Alias == alias {
				return r.bindings[bi].Get(attr)
			}
			bi++
		}
		return r.current.Get(attr)
	}
	return r.current.Get(name)
}

// deadlineHeap is a min-heap of instances by deadline.
type deadlineHeap []*instance

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *deadlineHeap) Push(x any) {
	inst := x.(*instance)
	inst.heapIdx = len(*h)
	*h = append(*h, inst)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	inst := old[n-1]
	old[n-1] = nil
	inst.heapIdx = -1
	*h = old[:n-1]
	return inst
}

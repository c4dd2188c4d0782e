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
// Indexing. Each node indexes its outgoing edges by event type, and
// within a type by the guard's first `field = literal` conjunct (the
// same analysis internal/rules uses), so an event only touches edges
// its type and attributes could actually advance. Nodes holding live
// instances register in a wake index keyed by the event types relevant
// to them; all other nodes are never visited.
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
// per-feed scratch (candidate edges, wake-node list, index key buffer)
// is reused, and new instances are epoch-stamped so the creating event
// never re-feeds them. An event that advances nothing allocates
// nothing; CI pins this with AllocsPerRun.
package cep

import (
	"container/heap"
	"errors"
	"fmt"
	"strings"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/expr"
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
	seq      uint64 // registration sequence, gates new patterns off old instances
	epoch    uint64 // feed sequence, keeps the creating event off new instances

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
	keyBuf      []byte
	res         sharedResolver

	matchCount uint64
	pruned     uint64
	dropped    uint64
}

// NewShared creates an empty shared automaton.
func NewShared() *Shared {
	return &Shared{
		MaxInstances: defaultMaxInstances,
		patterns:     make(map[string]*patEntry),
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

// Has reports whether a pattern name is registered.
func (s *Shared) Has(name string) bool {
	_, ok := s.patterns[name]
	return ok
}

// node is one trie state: the set of (strategy, step-prefix) classes a
// partial match can be in.
type node struct {
	strategy Strategy
	depth    int      // positive steps bound on arrival
	aliases  []string // positive aliases along the path, in order

	edges    []*edge
	bySig    map[string]*edge
	byType   map[string]*bucket // positive-step type → candidate edges
	anyEdges []*edge            // type-wildcard steps, always candidates
	negEdges []*edge            // edges carrying negated steps

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

// edge is one trie transition: a positive step plus the negated steps
// that guard the wait for it.
type edge struct {
	sig       string
	from, to  *node
	eventType string // "" matches any type
	alias     string
	guard     *expr.Predicate
	negs      []negStep
}

type negStep struct {
	eventType string
	guard     *expr.Predicate
}

// bucket indexes one (node, event type)'s candidate edges: guards with
// a `field = literal` conjunct hang off an equality index keyed like
// internal/rules; the rest are scanned.
type bucket struct {
	scan     []*edge
	eqFields []string
	eq       map[string]map[string][]*edge
}

// patEntry is one registered pattern's place in the trie.
type patEntry struct {
	p     *Pattern
	seq   uint64
	nodes []*node // path, one per positive step (root excluded)
	edges []*edge
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

func (i *instance) isBlocked(e *edge) bool {
	for _, b := range i.blocked {
		if b == e {
			return true
		}
	}
	return false
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
	ent := &patEntry{p: p, seq: s.seq}
	n := s.root(p.Strategy)
	for k, si := range p.positive {
		lo := 0
		if k > 0 {
			lo = p.positive[k-1] + 1
		}
		seg := p.Steps[lo : si+1]
		sig := segmentSig(seg)
		e := n.bySig[sig]
		if e == nil {
			e = newEdge(n, seg, sig)
			n.edges = append(n.edges, e)
			n.bySig[sig] = e
			n.indexEdge(e)
			s.refreshWake(n)
		}
		n = e.to
		n.npat++
		if p.Within <= 0 {
			n.unbounded++
		} else if p.Within > n.maxWithin {
			n.maxWithin = p.Within
		}
		ent.nodes = append(ent.nodes, n)
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
	term := ent.nodes[len(ent.nodes)-1]
	for i, pe := range term.accepts {
		if pe == ent {
			term.accepts = append(term.accepts[:i], term.accepts[i+1:]...)
			break
		}
	}
	for i := len(ent.nodes) - 1; i >= 0; i-- {
		n := ent.nodes[i]
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

func (s *Shared) root(st Strategy) *node {
	if s.roots[st] == nil {
		s.roots[st] = &node{
			strategy: st,
			bySig:    make(map[string]*edge),
			byType:   make(map[string]*bucket),
		}
	}
	return s.roots[st]
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

func newEdge(from *node, seg []Step, sig string) *edge {
	pos := seg[len(seg)-1]
	e := &edge{sig: sig, from: from, eventType: pos.EventType, alias: pos.Alias, guard: pos.guard}
	for i := range seg[:len(seg)-1] {
		e.negs = append(e.negs, negStep{eventType: seg[i].EventType, guard: seg[i].guard})
	}
	aliases := make([]string, 0, len(from.aliases)+1)
	aliases = append(append(aliases, from.aliases...), pos.Alias)
	e.to = &node{
		strategy: from.strategy,
		depth:    from.depth + 1,
		aliases:  aliases,
		bySig:    make(map[string]*edge),
		byType:   make(map[string]*bucket),
	}
	return e
}

// indexEdge files an edge under its node's type/predicate index.
func (n *node) indexEdge(e *edge) {
	if len(e.negs) > 0 {
		n.negEdges = append(n.negEdges, e)
	}
	if e.eventType == "" {
		n.anyEdges = append(n.anyEdges, e)
		return
	}
	b := n.byType[e.eventType]
	if b == nil {
		b = &bucket{}
		n.byType[e.eventType] = b
	}
	if e.guard != nil {
		// Anchor on the first equality conjunct over a bare (current-
		// event) field: guard ⇒ field = literal, so a mismatched anchor
		// means the guard is false and the edge can be skipped unseen.
		for _, eq := range e.guard.EqPreds {
			if strings.IndexByte(eq.Field, '.') >= 0 {
				continue // references an earlier binding, not this event
			}
			if b.eq == nil {
				b.eq = make(map[string]map[string][]*edge)
			}
			m := b.eq[eq.Field]
			if m == nil {
				m = make(map[string][]*edge)
				b.eq[eq.Field] = m
				b.eqFields = append(b.eqFields, eq.Field)
			}
			key := string(val.AppendKey(nil, eq.Value))
			m[key] = append(m[key], e)
			return
		}
	}
	b.scan = append(b.scan, e)
}

// unlinkEdge removes an edge (whose subtree is pattern-free) from its
// parent, rebuilding the parent's index and purging stale blocked refs.
func (s *Shared) unlinkEdge(e *edge) {
	n := e.from
	for i, x := range n.edges {
		if x == e {
			n.edges = append(n.edges[:i], n.edges[i+1:]...)
			break
		}
	}
	delete(n.bySig, e.sig)
	n.reindex()
	s.refreshWake(n)
	inst := n.head
	for inst != nil {
		next := inst.next
		for i, b := range inst.blocked {
			if b == e {
				inst.blocked = append(inst.blocked[:i], inst.blocked[i+1:]...)
				break
			}
		}
		if len(inst.blocked) == len(n.edges) {
			s.freeInstance(inst) // nothing left it could ever advance
		}
		inst = next
	}
}

func (n *node) reindex() {
	n.anyEdges = n.anyEdges[:0]
	n.negEdges = n.negEdges[:0]
	for t := range n.byType {
		delete(n.byType, t)
	}
	for _, e := range n.edges {
		n.indexEdge(e)
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
		n.noteWakeType(e.eventType)
		for _, ng := range e.negs {
			n.noteWakeType(ng.eventType)
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
	if !containsStr(n.wakeKeys, t) {
		n.wakeKeys = append(n.wakeKeys, t)
	}
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
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
		if r != nil {
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
// attributes could advance, into the reused candScratch.
func (s *Shared) candidates(n *node, ev *event.Event) []*edge {
	cands := s.candScratch[:0]
	if b := n.byType[ev.Type]; b != nil {
		for _, f := range b.eqFields {
			v, ok := ev.Get(f)
			if !ok {
				continue
			}
			s.keyBuf = val.AppendKey(s.keyBuf[:0], v)
			cands = append(cands, b.eq[f][string(s.keyBuf)]...)
		}
		cands = append(cands, b.scan...)
	}
	cands = append(cands, n.anyEdges...)
	s.candScratch = cands
	return cands
}

func (s *Shared) feedNode(n *node, ev *event.Event) {
	if n.ninst == 0 {
		return
	}
	cands := s.candidates(n, ev)
	negs := s.negScratch[:0]
	for _, e := range n.negEdges {
		for _, ng := range e.negs {
			if ng.eventType == "" || ng.eventType == ev.Type {
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
		if inst.isBlocked(e) {
			continue
		}
		for _, ng := range e.negs {
			if ng.eventType != "" && ng.eventType != ev.Type {
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
		if inst.isBlocked(e) {
			continue
		}
		if e.guard != nil && !s.guardOK(e.guard, n, inst.bindings, ev) {
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
		if e.guard != nil && !s.guardOK(e.guard, root, nil, ev) {
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
		b := make(map[string]*event.Event, len(to.aliases))
		for i, al := range to.aliases {
			if i < len(parent) {
				b[al] = parent[i]
			} else {
				b[al] = ev
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
	for i := range inst.bindings {
		inst.bindings[i] = nil // don't pin events from the pool
	}
	inst.bindings = inst.bindings[:0]
	for i := range inst.blocked {
		inst.blocked[i] = nil
	}
	inst.blocked = inst.blocked[:0]
	inst.heapIdx = -1
	s.pool = append(s.pool, inst)
}

func (s *Shared) guardOK(g *expr.Predicate, n *node, bindings []*event.Event, ev *event.Event) bool {
	s.res.aliases = n.aliases
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
	aliases  []string
	bindings []*event.Event
	current  *event.Event
}

func (r *sharedResolver) Get(name string) (val.Value, bool) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		alias, attr := name[:i], name[i+1:]
		for bi, al := range r.aliases {
			if bi >= len(r.bindings) {
				break
			}
			if al == alias {
				return r.bindings[bi].Get(attr)
			}
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

// Package pubsub implements publish/subscribe and the paper's
// "subscribe-to-publish" extension (§2.2.c.i.1–2): subscriptions are
// predicate expressions stored as data, indexed by the rules engine so
// that publishing an event costs far less than evaluating every
// subscription.
//
// A subscription is one rule of the broker's rules.Engine, the rule's
// handle is where its matches go, and the engine is the only registry:
// a lookup, a Rebind and an Unsubscribe are each one engine operation,
// and a subscription is one record.
//
// Deliveries go either to a Target (a callback) or to a staging queue
// (the usual production arrangement: matching is fast and synchronous,
// consumption is asynchronous from the queue).
package pubsub

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
)

// Delivery is one matched (subscription, event) pair.
type Delivery struct {
	SubID      string
	Subscriber string
	Event      *event.Event
}

// Handler consumes deliveries for callback subscriptions.
type Handler func(Delivery)

// Broker matches published events against stored subscriptions.
type Broker struct {
	engine *rules.Engine

	// scratchPool recycles fan-out scratch for the plain Publish entry
	// point (hot loops hold a Publisher, which carries its own).
	scratchPool sync.Pool
}

// Target receives the matches of callback subscriptions, on the
// publishing goroutine: one call per event with the ids of all of its
// subscriptions the event matched, in match order. It is the handle of
// each such subscription's rule, so delivery needs no lookup by name.
// ids is the broker's scratch, valid only during the call.
type Target interface {
	Deliver(ids []string, ev *event.Event)
}

// handlerTarget is the Target of a subscription made by Subscribe.
type handlerTarget struct {
	subscriber string
	h          Handler
}

func (t *handlerTarget) Deliver(ids []string, ev *event.Event) {
	for _, id := range ids {
		t.h(Delivery{SubID: id, Subscriber: t.subscriber, Event: ev})
	}
}

// queueSub is the handle of a subscription that stages into a queue.
type queueSub struct {
	queue    *queue.Queue
	priority int
}

// queueMatch is one matched queue subscription, by its id.
type queueMatch struct {
	id string
	*queueSub
}

// NewBroker creates a broker with an indexed matching engine.
func NewBroker() *Broker {
	b := &Broker{engine: rules.NewEngine()}
	b.scratchPool.New = func() any { return new(deliverScratch) }
	return b
}

// matchAll is the compiled empty filter: the predicate with no
// conjuncts, which matches every event without evaluating anything.
var matchAll = &expr.Predicate{}

// Compile compiles a filter: a predicate over event attributes
// (including $type/$source envelope fields). The empty filter matches
// everything.
func Compile(filter string) (*expr.Predicate, error) {
	if filter == "" {
		return matchAll, nil
	}
	return expr.Compile(filter)
}

// FilterOf reports the filter of an active subscription.
func (b *Broker) FilterOf(id string) (filter string, ok bool) {
	filter, _, ok = b.engine.Lookup(id)
	return filter, ok
}

// Len returns the number of active subscriptions.
func (b *Broker) Len() int { return b.engine.Len() }

// Subscribe registers a callback subscription under a filter (see
// Compile): h receives each match as a Delivery naming subscriber.
func (b *Broker) Subscribe(id, subscriber, filter string, h Handler) error {
	if h == nil {
		return errors.New("pubsub: nil handler")
	}
	return b.subscribe(id, filter, &handlerTarget{subscriber: subscriber, h: h})
}

// SubscribeTarget registers a subscription under a filter (see Compile)
// whose matches go to t. It keeps no part of filter (see
// expr.Predicate.Detach), and FilterOf may report "" for it.
func (b *Broker) SubscribeTarget(id, filter string, t Target) error {
	f, err := Compile(filter)
	if err != nil {
		return err
	}
	return b.engine.Install(id, f.Detach(), t)
}

// TargetOf reports where a callback subscription's matches go.
func (b *Broker) TargetOf(id string) (Target, bool) {
	_, h, _ := b.engine.Lookup(id)
	t, ok := h.(Target)
	return t, ok
}

// SubscribeQueue registers a subscription delivering into a staging
// queue with the given enqueue priority. A queue delivery is no
// Delivery, so the subscriber is not kept.
func (b *Broker) SubscribeQueue(id, subscriber, filter string, q *queue.Queue, priority int) error {
	if q == nil {
		return errors.New("pubsub: nil queue")
	}
	return b.subscribe(id, filter, &queueSub{queue: q, priority: priority})
}

func (b *Broker) subscribe(id, filter string, handle any) error {
	f, err := Compile(filter)
	if err != nil {
		return err
	}
	return b.engine.Install(id, f, handle)
}

// Bind routes events matching the compiled filter f into q under id:
// it subscribes q if id is free, and otherwise replaces id's filter as
// Rebind does.
func (b *Broker) Bind(id string, f *expr.Predicate, q *queue.Queue) error {
	if _, bound := b.FilterOf(id); bound {
		return b.engine.Replace(id, f)
	}
	return b.engine.Install(id, f, &queueSub{queue: q})
}

// Rebind replaces a subscription's filter in one engine operation: each
// event meets either the old filter or the new one, and a filter that
// fails to compile leaves the binding untouched — an error means the
// rebind did not happen.
func (b *Broker) Rebind(id, filter string) error {
	f, err := Compile(filter)
	if err != nil {
		return err
	}
	return b.engine.Replace(id, f)
}

// Unsubscribe removes a subscription. Once it returns, a match taken
// before it delivers nothing (see rules.Rule.Handle).
func (b *Broker) Unsubscribe(id string) error { return b.engine.Remove(id) }

// UnsubscribePrefix removes every subscription whose id has prefix.
func (b *Broker) UnsubscribePrefix(prefix string) { b.engine.RemovePrefix(prefix) }

// Publish matches the event against all subscriptions and delivers to
// each match, returning the number of deliveries. Callback handlers run
// synchronously on the publisher's goroutine; queue deliveries stage
// under one group-commit transaction (see deliver).
func (b *Broker) Publish(ev *event.Event) (int, error) {
	matched, err := b.engine.Match(ev)
	if err != nil {
		return 0, err
	}
	sc := b.scratchPool.Get().(*deliverScratch)
	n, err := b.deliver(matched, ev, sc)
	b.scratchPool.Put(sc)
	return n, err
}

// deliverScratch is the reusable fan-out working set: the matched
// callback subscriptions grouped by target, and the matched
// queue-backed subscriptions and their staging targets, reused across
// publishes so the steady-state delivery path allocates nothing.
type deliverScratch struct {
	groups []targetGroup
	index  map[Target]int // a target's place in groups, once an event has two
	ids    []string       // the ids handed to one target's Deliver

	qsubs   []queueMatch
	targets []queue.Target

	// Between Publisher.BeginBatch and EndBatch the queue deliveries of
	// successive events are buffered in group and share its commit.
	// staged and stagedSubs remember what group holds, so that a failed
	// commit can be replayed event by event.
	batching   bool
	group      queue.Group
	staged     []stagedEvent
	stagedSubs []queueMatch // the staged events' queue subscriptions, back to back
}

// targetGroup is one target of an event and where its subscriptions'
// rules are in the event's matches; at keeps its capacity across events.
type targetGroup struct {
	t  Target
	at []int
}

// stagedEvent is one event buffered in a deliverScratch's group, with
// how many entries of stagedSubs are its.
type stagedEvent struct {
	ev   *event.Event
	subs int
}

// maxStaged bounds the queue stagings that share one commit record; a
// batch with more commits in several.
const maxStaged = 256

// deliver routes one matched event to every matching subscription:
// each callback target runs inline once, with its subscriptions' ids in
// match order (a connection's SUBs are one target), and queue-backed
// deliveries for the event are staged together through
// queue.EnqueueGroup — one transaction, one WAL append, one fsync,
// payload encoded once — instead of one commit per queue. In a batch
// (see Publisher.BeginBatch) the transaction is the batch's, and the
// queue deliveries are counted and their errors reported when it
// commits, not here.
//
// Delivery is best-effort: an enqueue failure never stops the
// remaining deliveries. If the group transaction fails (one vetoed or
// broken queue aborts the shared commit), each queue delivery is
// retried individually so healthy siblings still receive the event,
// and the per-subscription failures come back as one aggregated error
// alongside the count of deliveries that did land.
func (b *Broker) deliver(matched []*rules.Rule, ev *event.Event, sc *deliverScratch) (int, error) {
	sc.groups = sc.groups[:0]
	queued := false
	for i, r := range matched {
		switch h := r.Handle().(type) {
		case *queueSub:
			queued = true
		case Target:
			g := sc.groupOf(h)
			g.at = append(g.at, i)
		}
	}
	// A rule unsubscribed since the match was taken carries no handle
	// and receives nothing, so each is read again just before its
	// delivery: a target's Deliver may unsubscribe a later one. The
	// scratch outlives this publish, so it keeps no target or id.
	delivered := 0
	for i := range sc.groups {
		g := &sc.groups[i]
		ids := sc.ids[:0]
		for _, at := range g.at {
			if r := matched[at]; r.Handle() != nil {
				ids = append(ids, r.Name)
			}
		}
		if len(ids) > 0 {
			g.t.Deliver(ids, ev)
			delivered += len(ids)
		}
		delete(sc.index, g.t)
		clear(ids)
		sc.ids = ids
		g.t = nil
	}
	if !queued {
		return delivered, nil
	}
	qsubs := sc.qsubs[:0]
	for _, r := range matched {
		if h, ok := r.Handle().(*queueSub); ok {
			qsubs = append(qsubs, queueMatch{r.Name, h})
		}
	}
	if len(qsubs) == 0 {
		return delivered, nil
	}
	// Zero the retained slots on the way out so the scratch cannot pin
	// since-unsubscribed queues until some later fan-out overwrites them.
	sc.qsubs = qsubs
	defer func() {
		clear(qsubs)
		clear(sc.targets)
	}()
	var n int
	var err error
	if sc.batching {
		n, err = sc.stage(ev, qsubs)
	} else {
		n, err = sc.enqueue(ev, qsubs)
	}
	return delivered + n, err
}

// groupOf returns t's group among this event's targets, adding one for
// a new target. A target's subscriptions usually match back to back, so
// the last group is tried first, and the map only once the event has a
// second target: O(1) per match, however many targets.
func (sc *deliverScratch) groupOf(t Target) *targetGroup {
	n := len(sc.groups)
	if n > 0 && sc.groups[n-1].t == t {
		return &sc.groups[n-1]
	}
	if i, ok := sc.index[t]; ok {
		return &sc.groups[i]
	}
	if n > 0 {
		if sc.index == nil {
			sc.index = make(map[Target]int)
		}
		if n == 1 {
			sc.index[sc.groups[0].t] = 0
		}
		sc.index[t] = n
	}
	sc.groups = slices.Grow(sc.groups, 1)[:n+1] // keeps each group's at
	g := &sc.groups[n]
	g.t, g.at = t, g.at[:0]
	return g
}

// targetsOf lists the queues of qsubs in sc.targets.
func (sc *deliverScratch) targetsOf(qsubs []queueMatch) []queue.Target {
	sc.targets = sc.targets[:0]
	for _, s := range qsubs {
		sc.targets = append(sc.targets, queue.Target{Queue: s.queue, Opts: queue.EnqueueOptions{Priority: s.priority}})
	}
	return sc.targets
}

// enqueue stages one event into the queues of qsubs in a transaction of
// its own and returns how many of them have it.
func (sc *deliverScratch) enqueue(ev *event.Event, qsubs []queueMatch) (int, error) {
	if err := queue.EnqueueGroup(ev, sc.targetsOf(qsubs)); err == nil {
		return len(qsubs), nil
	}
	// Group staging failed — the shared transaction rolled back, so
	// nothing was staged anywhere. Retry each queue individually,
	// collecting failures, so one full queue cannot starve the rest.
	delivered := 0
	var errs []error
	for _, s := range qsubs {
		if _, err := s.queue.Enqueue(ev, queue.EnqueueOptions{Priority: s.priority}); err != nil {
			errs = append(errs, fmt.Errorf("pubsub: enqueue for %q: %w", s.id, err))
			continue
		}
		delivered++
	}
	return delivered, errors.Join(errs...)
}

// stage buffers one event's queue deliveries in the batch's group,
// committing first what the group holds when this event would take it
// past maxStaged. It returns what such a commit landed.
func (sc *deliverScratch) stage(ev *event.Event, qsubs []queueMatch) (landed int, err error) {
	if rows := sc.group.Rows(); rows > 0 && rows+len(qsubs) > maxStaged {
		landed, err = sc.flush()
	}
	sc.staged = append(sc.staged, stagedEvent{ev: ev, subs: len(qsubs)})
	sc.stagedSubs = append(sc.stagedSubs, qsubs...)
	if aerr := sc.group.Add(ev, sc.targetsOf(qsubs)); aerr != nil {
		// The group holds part of this event: give it up and stage
		// everything it held, this event included, the slow way.
		sc.group.Rollback()
		n, uerr := sc.unstage()
		if err == nil {
			err = uerr
		}
		return landed + n, err
	}
	return landed, err
}

// flush commits the batch's group and returns how many queue deliveries
// landed. If the commit fails nothing of it was staged, and every event
// it held is staged again on its own (see enqueue), so one vetoed queue
// costs the batch its shared commit and not its healthy deliveries.
func (sc *deliverScratch) flush() (int, error) {
	if len(sc.staged) == 0 {
		return 0, nil
	}
	rows := sc.group.Rows()
	if err := sc.group.Commit(); err != nil {
		return sc.unstage()
	}
	sc.forget()
	return rows, nil
}

// unstage stages each remembered event on its own, after the group
// that held them was lost. Every event is tried; the error is the
// first failing event's, which is what publishing them one by one and
// stopping at the first failure would have reported.
func (sc *deliverScratch) unstage() (int, error) {
	delivered := 0
	var first error
	subs := sc.stagedSubs
	for _, e := range sc.staged {
		n, err := sc.enqueue(e.ev, subs[:e.subs])
		subs = subs[e.subs:]
		delivered += n
		if first == nil {
			first = err
		}
	}
	sc.forget()
	return delivered, first
}

// forget drops the record of what the group held, keeping the scratch
// from pinning events and subscriptions.
func (sc *deliverScratch) forget() {
	clear(sc.staged)
	clear(sc.stagedSubs)
	sc.staged, sc.stagedSubs = sc.staged[:0], sc.stagedSubs[:0]
}

// Publisher carries reusable match and delivery scratch for a hot
// publish loop (the engine pools one per evaluating goroutine). Not
// safe for concurrent use; the broker itself remains safe to share.
type Publisher struct {
	b  *Broker
	m  *rules.Matcher
	sc deliverScratch
}

// NewPublisher creates a Publisher bound to the broker's live
// subscription set.
func (b *Broker) NewPublisher() *Publisher {
	return &Publisher{b: b, m: b.engine.NewMatcher()}
}

// Publish is Broker.Publish with scratch reuse.
func (p *Publisher) Publish(ev *event.Event) (int, error) {
	matched, err := p.m.Match(ev)
	if err != nil {
		return 0, err
	}
	return p.b.deliver(matched, ev, &p.sc)
}

// BeginBatch makes the Publish calls up to EndBatch share their queue
// stagings' transactions: the events' queue deliveries are buffered and
// land together, at most maxStaged to a commit, instead of one commit
// per event. Callback deliveries still run inside each Publish, which
// counts only them; queue deliveries are counted, and their failures
// reported, by whichever later call commits them — a Publish that finds
// the buffer full, or EndBatch.
func (p *Publisher) BeginBatch() { p.sc.batching = true }

// EndBatch commits the queue deliveries still buffered since BeginBatch
// and returns how many landed, with their aggregated failures.
func (p *Publisher) EndBatch() (int, error) {
	p.sc.batching = false
	return p.sc.flush()
}

// MatchOnly returns the subscription IDs that would receive the event,
// without delivering — the "rules service identifies interested
// consumers" usage for external data (§2.2.c.ii).
func (b *Broker) MatchOnly(ev *event.Event) ([]string, error) {
	matched, err := b.engine.Match(ev)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(matched))
	for i, r := range matched {
		out[i] = r.Name
	}
	return out, nil
}

// Package pubsub implements publish/subscribe and the paper's
// "subscribe-to-publish" extension (§2.2.c.i.1–2): subscriptions are
// predicate expressions stored as data, indexed by the rules engine so
// that publishing an event costs far less than evaluating every
// subscription.
//
// Deliveries go either to a callback or to a staging queue (the usual
// production arrangement: matching is fast and synchronous, consumption
// is asynchronous from the queue).
package pubsub

import (
	"errors"
	"fmt"
	"sync"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
	"eventdb/internal/storage"
	"eventdb/internal/val"
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

	mu   sync.RWMutex
	subs map[string]*subscription

	store      *storage.DB
	storeTable string
	// persistQueueOnly restricts AttachStore persistence to queue-backed
	// subscriptions (see PersistOnlyQueueSubs).
	persistQueueOnly bool

	// scratchPool recycles fan-out scratch for the plain Publish entry
	// point (hot loops hold a Publisher, which carries its own).
	scratchPool sync.Pool
}

type subscription struct {
	id         string
	subscriber string
	filter     string
	handler    Handler
	queue      *queue.Queue
	priority   int
}

// NewBroker creates a broker with an indexed matching engine.
func NewBroker() *Broker {
	b := &Broker{
		engine: rules.NewEngine(),
		subs:   make(map[string]*subscription),
	}
	b.scratchPool.New = func() any { return new(deliverScratch) }
	return b
}

// PersistOnlyQueueSubs limits AttachStore persistence to queue-backed
// subscriptions. Callback subscriptions are process-bound — their
// handlers are function values that cannot outlive the process — so a
// server registering short-lived wire subscriptions alongside durable
// queue bindings sets this to keep the store from accumulating rows
// that could only ever reload as no-op handlers.
func (b *Broker) PersistOnlyQueueSubs(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.persistQueueOnly = on
}

// FilterOf reports the filter of an active subscription.
func (b *Broker) FilterOf(id string) (filter string, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.subs[id]
	if !ok {
		return "", false
	}
	return s.filter, true
}

// Len returns the number of active subscriptions.
func (b *Broker) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// Subscribe registers a callback subscription. filter is a predicate
// over event attributes (including $type/$source envelope fields); the
// empty filter matches everything.
func (b *Broker) Subscribe(id, subscriber, filter string, h Handler) error {
	if h == nil {
		return errors.New("pubsub: nil handler")
	}
	return b.subscribe(&subscription{id: id, subscriber: subscriber, filter: filter, handler: h})
}

// SubscribeQueue registers a subscription delivering into a staging
// queue with the given enqueue priority.
func (b *Broker) SubscribeQueue(id, subscriber, filter string, q *queue.Queue, priority int) error {
	if q == nil {
		return errors.New("pubsub: nil queue")
	}
	return b.subscribe(&subscription{id: id, subscriber: subscriber, filter: filter, queue: q, priority: priority})
}

func (b *Broker) subscribe(s *subscription) error {
	if s.id == "" {
		return errors.New("pubsub: empty subscription id")
	}
	cond := s.filter
	if cond == "" {
		cond = "true"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.subs[s.id]; dup {
		return fmt.Errorf("pubsub: subscription %q already exists", s.id)
	}
	if _, err := b.engine.Add(s.id, cond, 0, nil); err != nil {
		return err
	}
	b.subs[s.id] = s
	if b.store != nil && (s.queue != nil || !b.persistQueueOnly) {
		if err := b.persist(s); err != nil {
			// Roll back the in-memory registration.
			b.engine.Remove(s.id)
			delete(b.subs, s.id)
			return err
		}
	}
	return nil
}

// Rebind atomically replaces a subscription's filter under the broker
// lock: the subscription is never absent from the index between the
// old and new filter, and a filter that fails to compile or persist
// leaves the existing binding untouched in both memory and store — an
// error means the rebind did not happen, everywhere.
func (b *Broker) Rebind(id, filter string) error {
	cond := filter
	if cond == "" {
		cond = "true"
	}
	// Validate before touching anything.
	if _, err := expr.Compile(cond); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.subs[id]
	if !ok {
		return fmt.Errorf("pubsub: no subscription %q", id)
	}
	if s.filter == filter {
		return nil
	}
	// Persist first: if the store write fails, live matching has not
	// changed, so memory and store agree (on the old filter). The
	// reverse order would leave a rebind that silently undoes itself
	// at the next restart.
	if b.store != nil && (s.queue != nil || !b.persistQueueOnly) {
		tbl, _ := b.store.Table(b.storeTable)
		if _, rid, ok := tbl.GetByPK(val.String(id)); ok {
			if err := b.store.UpdateRow(b.storeTable, rid, map[string]val.Value{
				"filter": val.String(filter),
			}); err != nil {
				return err
			}
		}
	}
	b.engine.Remove(id)
	if _, err := b.engine.Add(id, cond, 0, nil); err != nil {
		// Unreachable after the compile check above; restore the old
		// rule defensively rather than leave the binding missing.
		oldCond := s.filter
		if oldCond == "" {
			oldCond = "true"
		}
		b.engine.Add(id, oldCond, 0, nil)
		return err
	}
	s.filter = filter
	return nil
}

// Unsubscribe removes a subscription.
func (b *Broker) Unsubscribe(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[id]; !ok {
		return fmt.Errorf("pubsub: no subscription %q", id)
	}
	delete(b.subs, id)
	b.engine.Remove(id)
	if b.store != nil {
		tbl, _ := b.store.Table(b.storeTable)
		if _, rid, ok := tbl.GetByPK(val.String(id)); ok {
			return b.store.DeleteRow(b.storeTable, rid)
		}
	}
	return nil
}

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

// deliverScratch is the reusable fan-out working set: the subscription
// snapshot and the queue-staging target list, reused across publishes
// so the steady-state delivery path allocates nothing.
type deliverScratch struct {
	subs    []*subscription
	qsubs   []*subscription // the queue-backed ones among subs
	targets []queue.Target

	// Between Publisher.BeginBatch and EndBatch the queue deliveries of
	// successive events are buffered in group and share its commit.
	// staged and stagedSubs remember what group holds, so that a failed
	// commit can be replayed event by event.
	batching   bool
	group      queue.Group
	staged     []stagedEvent
	stagedSubs []*subscription // the staged events' queue subscriptions, back to back
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
// callback handlers run inline in match order, and queue-backed
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
	if len(matched) == 0 {
		return 0, nil
	}
	// The scratch outlives this publish (pool, shard-worker Publisher);
	// zero the retained slots on the way out so it cannot pin
	// since-unsubscribed handlers and queues until some later fan-out
	// happens to overwrite them.
	defer func() {
		clear(sc.subs)
		clear(sc.qsubs)
		clear(sc.targets)
	}()
	// Snapshot the matched subscriptions under a single RLock — not one
	// lock round trip per matched rule.
	subs := sc.subs[:0]
	b.mu.RLock()
	for _, r := range matched {
		if s, ok := b.subs[r.Name]; ok {
			subs = append(subs, s)
		}
	}
	b.mu.RUnlock()
	sc.subs = subs

	delivered := 0
	qsubs := sc.qsubs[:0]
	for _, s := range subs {
		if s.queue != nil {
			qsubs = append(qsubs, s)
			continue
		}
		s.handler(Delivery{SubID: s.id, Subscriber: s.subscriber, Event: ev})
		delivered++
	}
	sc.qsubs = qsubs
	if len(qsubs) == 0 {
		return delivered, nil
	}
	var n int
	var err error
	if sc.batching {
		n, err = sc.stage(ev, qsubs)
	} else {
		n, err = sc.enqueue(ev, qsubs)
	}
	return delivered + n, err
}

// targetsOf lists the queues of qsubs in sc.targets.
func (sc *deliverScratch) targetsOf(qsubs []*subscription) []queue.Target {
	sc.targets = sc.targets[:0]
	for _, s := range qsubs {
		sc.targets = append(sc.targets, queue.Target{Queue: s.queue, Opts: queue.EnqueueOptions{Priority: s.priority}})
	}
	return sc.targets
}

// enqueue stages one event into the queues of qsubs in a transaction of
// its own and returns how many of them have it.
func (sc *deliverScratch) enqueue(ev *event.Event, qsubs []*subscription) (int, error) {
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
func (sc *deliverScratch) stage(ev *event.Event, qsubs []*subscription) (landed int, err error) {
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
// publish loop (the sharded ingest pipeline gives each shard worker
// one). Not safe for concurrent use; the broker itself remains safe to
// share.
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

// SubsTableSchema returns the schema used to persist subscriptions.
func SubsTableSchema(table string) (*storage.Schema, error) {
	return storage.NewSchema(table, []storage.Column{
		{Name: "id", Kind: val.KindString, NotNull: true},
		{Name: "subscriber", Kind: val.KindString, NotNull: true},
		{Name: "filter", Kind: val.KindString, NotNull: true},
		{Name: "queue", Kind: val.KindString, Default: val.String("")},
		{Name: "priority", Kind: val.KindInt, Default: val.Int(0)},
	}, "id")
}

// AttachStore persists subscriptions in a database table (expressions as
// data) and reloads existing rows: queue subscriptions rebind through
// qm (reopened queues take qcfg); callback rows rebind through handlers
// (by subscriber name), falling back to a drop handler when absent.
func (b *Broker) AttachStore(db *storage.DB, table string, qm *queue.Manager, qcfg queue.Config, handlers map[string]Handler) error {
	if _, ok := db.Table(table); !ok {
		schema, err := SubsTableSchema(table)
		if err != nil {
			return err
		}
		if err := db.CreateTable(schema); err != nil {
			return err
		}
	}
	b.mu.Lock()
	b.store = db
	b.storeTable = table
	b.mu.Unlock()

	tbl, _ := db.Table(table)
	var loadErr error
	tbl.Scan(func(_ storage.RowID, r storage.Row) bool {
		id, _ := r[0].AsString()
		subscriber, _ := r[1].AsString()
		filter, _ := r[2].AsString()
		qname, _ := r[3].AsString()
		pri, _ := r[4].AsInt()
		s := &subscription{id: id, subscriber: subscriber, filter: filter, priority: int(pri)}
		if qname != "" {
			q, ok := qm.Get(qname)
			if !ok {
				var err error
				q, err = qm.Open(qname, qcfg)
				if err != nil {
					loadErr = fmt.Errorf("pubsub: subscription %q: %w", id, err)
					return false
				}
			}
			s.queue = q
		} else if h, ok := handlers[subscriber]; ok {
			s.handler = h
		} else {
			s.handler = func(Delivery) {}
		}
		b.mu.Lock()
		if _, dup := b.subs[id]; !dup {
			cond := filter
			if cond == "" {
				cond = "true"
			}
			if _, err := b.engine.Add(id, cond, 0, nil); err != nil {
				loadErr = err
				b.mu.Unlock()
				return false
			}
			b.subs[id] = s
		}
		b.mu.Unlock()
		return true
	})
	return loadErr
}

// persist writes a subscription row. Caller holds b.mu.
func (b *Broker) persist(s *subscription) error {
	qname := ""
	if s.queue != nil {
		qname = s.queue.Name()
	}
	_, err := b.store.Insert(b.storeTable, map[string]val.Value{
		"id":         val.String(s.id),
		"subscriber": val.String(s.subscriber),
		"filter":     val.String(s.filter),
		"queue":      val.String(qname),
		"priority":   val.Int(int64(s.priority)),
	})
	return err
}

// Package queue implements message storage — the paper's "staging areas"
// (§2.2.b). A queue is a database table: enqueue is an (extended) INSERT,
// so messages inherit the engine's transactional support, recoverability
// and auditability. Internally created messages ride an in-memory
// ready/delayed structure for speed — the paper's "significant
// opportunities for optimization" for internal messages — while the
// table remains the authoritative, recoverable source.
//
// A message's row is written when its fate changes, not each time it is
// handed out: staged (INSERT), NACKed, timed out or dead-lettered
// (UPDATE), acknowledged (DELETE, batched by Settle). A claim is a lock
// in memory, so a restart redelivers with the same attempt number.
//
// Because registration happens in a commit hook on the backing table,
// any INSERT into the queue table — from this API, from a foreign
// system's transaction, or from a trigger — becomes a deliverable
// message ("database as message store").
//
// Delivery semantics: at-least-once. A dequeued message is invisible for
// the queue's visibility timeout; if not acknowledged in time it is
// redelivered (attempts capped, then dead-lettered). Receipts carry the
// delivery attempt so a stale receipt (from before a redelivery) cannot
// acknowledge the message.
//
// Both directions batch: Group stages any number of events into any
// number of queues under one transaction (EnqueueGroup is its one-event
// case), and DequeueBatch claims up to 256 messages (Dequeue is its
// one-message case) after one Settle of those acknowledged meanwhile.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Message states stored in the queue table (stateInflight: older daemons).
const (
	stateReady    = "ready"
	stateInflight = "inflight"
	stateDead     = "dead"
)

// Config parameterizes a queue.
type Config struct {
	// VisibilityTimeout is how long a dequeued message stays invisible
	// before redelivery. Default 30s.
	VisibilityTimeout time.Duration
	// MaxAttempts dead-letters a message when its delivery with this
	// attempt number fails. Default 5. Values < 1 are treated as 1.
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.VisibilityTimeout <= 0 {
		c.VisibilityTimeout = 30 * time.Second
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 5
	}
	return c
}

// Manager creates and reopens queues over a database.
type Manager struct {
	db *storage.DB

	mu     sync.Mutex
	queues map[string]*Queue
}

// NewManager creates a queue manager.
func NewManager(db *storage.DB) *Manager {
	return &Manager{db: db, queues: make(map[string]*Queue)}
}

// TableName returns the storage table backing a queue.
func TableName(queue string) string { return "q_" + queue }

// IsQueueTable reports whether a storage table backs a queue, i.e. was
// named by TableName. Replication fan-out uses it to avoid publishing
// staging-table churn as database change events.
func IsQueueTable(table string) bool { return strings.HasPrefix(table, "q_") }

// Create makes a new queue (its backing table must not exist yet).
func (m *Manager) Create(name string, cfg Config) (*Queue, error) {
	schema, err := storage.NewSchema(TableName(name), []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "pri", Kind: val.KindInt, NotNull: true},
		{Name: "visible_at", Kind: val.KindInt, NotNull: true},
		{Name: "attempts", Kind: val.KindInt, NotNull: true},
		{Name: "state", Kind: val.KindString, NotNull: true},
		{Name: "enqueued_at", Kind: val.KindInt, NotNull: true},
		{Name: "consumer", Kind: val.KindString, Default: val.String("")},
		{Name: "payload", Kind: val.KindBytes},
	}, "id")
	if err != nil {
		return nil, err
	}
	if err := m.db.CreateTable(schema); err != nil {
		return nil, err
	}
	return m.attach(name, cfg)
}

// ErrNotFound wraps lookups of queues whose backing table does not
// exist, so callers can distinguish absence from attach failures.
var ErrNotFound = errors.New("queue: no such queue")

// Open attaches to an existing queue table (e.g. after recovery),
// rebuilding the in-memory ready/delayed structures from it.
func (m *Manager) Open(name string, cfg Config) (*Queue, error) {
	if _, ok := m.db.Table(TableName(name)); !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return m.attach(name, cfg)
}

// Get returns an already attached queue.
func (m *Manager) Get(name string) (*Queue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queues[name]
	return q, ok
}

// Close settles every queue and detaches its commit hook.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, q := range m.queues {
		q.Settle()
		if q.removeHook != nil {
			q.removeHook()
			q.removeHook = nil
		}
		delete(m.queues, name)
	}
}

func (m *Manager) attach(name string, cfg Config) (*Queue, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.queues[name]; ok {
		return q, nil
	}
	tbl, ok := m.db.Table(TableName(name))
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	q := &Queue{
		name:      name,
		tableName: TableName(name),
		db:        m.db,
		table:     tbl,
		cfg:       cfg.withDefaults(),
		rowIDs:    make(map[int64]storage.RowID),
		inflight:  make(map[int64]inflightInfo),
		reapAfter: math.MaxInt64,
		notify:    make(chan struct{}, 1),
	}
	// Rebuild in-memory state from the authoritative table. Claims were
	// never written, so messages in flight in a previous incarnation
	// read as ready and are redelivered.
	var maxID int64
	var restoreReady []readyItem
	tbl.Scan(func(rid storage.RowID, r storage.Row) bool {
		id, _ := r[0].AsInt()
		if id > maxID {
			maxID = id
		}
		q.rowIDs[id] = rid
		state, _ := r[4].AsString()
		pri, _ := r[1].AsInt()
		vis, _ := r[2].AsInt()
		switch state {
		case stateDead:
			q.dead++ // stays parked until Requeue
		case stateInflight:
			// Claimed by an older daemon: its consumer is gone, so the
			// message is ready at once. The row is not rewritten.
			restoreReady = append(restoreReady, readyItem{id: id, pri: pri})
		default:
			restoreReady = append(restoreReady, readyItem{id: id, pri: pri, visibleAt: vis})
		}
		return true
	})
	q.mu.Lock()
	for _, it := range restoreReady {
		q.push(it)
	}
	q.nextID = maxID + 1
	q.mu.Unlock()

	// Inserts into the backing table become deliverable messages at
	// commit time, whoever wrote them.
	q.removeHook = m.db.OnCommit(func(ci *storage.CommitInfo) {
		// One hold of q.mu per commit, taken at the first staged row: a
		// batch's inserts register together.
		locked, woke := false, false
		for i := range ci.Changes {
			c := &ci.Changes[i]
			if c.Table != q.tableName || c.Kind != storage.Insert {
				continue
			}
			id, _ := c.New[0].AsInt()
			pri, _ := c.New[1].AsInt()
			vis, _ := c.New[2].AsInt()
			state, _ := c.New[4].AsString()
			if !locked {
				q.mu.Lock()
				locked = true
			}
			q.rowIDs[id] = c.ID
			if id >= q.nextID {
				q.nextID = id + 1
			}
			if state == stateDead {
				q.dead++
			} else {
				q.push(readyItem{id: id, pri: pri, visibleAt: vis})
				woke = true
			}
		}
		if locked {
			q.mu.Unlock()
		}
		if woke {
			q.wake()
		}
	})
	m.queues[name] = q
	return q, nil
}

// Queue is one staging area. Safe for concurrent use.
type Queue struct {
	name      string
	tableName string // TableName(name), the backing table
	db        *storage.DB
	table     *storage.Table
	cfg       Config

	mu      sync.Mutex
	nextID  int64
	ready   readyHeap   // visible messages, by (pri desc, id asc)
	delayed delayedHeap // future-visible messages, by visible_at
	// rowIDs holds every message but the acknowledged ones whose rows
	// wait in settle for their delete; dead of them are dead letters.
	rowIDs map[int64]storage.RowID
	settle []storage.RowID
	dead   int
	// inflight is the claim on each delivered message, held only here.
	inflight map[int64]inflightInfo
	settleMu sync.Mutex // one Settle at a time; taken before mu
	// reapAfter is a lower bound on the earliest in-flight deadline:
	// while the clock is below it reapExpired has nothing to find and
	// does not look. Settling a delivery leaves it stale (still a lower
	// bound); the scans that do run make it exact again.
	reapAfter int64

	notify     chan struct{}
	removeHook func()
}

type inflightInfo struct {
	deadline int64 // unix nanos
	attempt  int64 // the persisted attempts + 1
	pri      int64
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// EnqueueOptions tune a single enqueue.
type EnqueueOptions struct {
	// Priority orders delivery (higher first). Default 0.
	Priority int
	// Delay postpones visibility.
	Delay time.Duration
}

// Enqueue stores an event as a message in its own transaction and
// returns the message ID.
func (q *Queue) Enqueue(ev *event.Event, opts EnqueueOptions) (int64, error) {
	txn := q.db.Begin()
	id, err := q.EnqueueTx(txn, ev, opts)
	if err != nil {
		txn.Rollback()
		return 0, err
	}
	if _, err := txn.Commit(); err != nil {
		return 0, err
	}
	return id, nil
}

// EnqueueTx buffers the enqueue into a caller-owned transaction — the
// paper's "extended INSERT interface": a message lands atomically with
// any other table changes in the same transaction. The message becomes
// deliverable only when the transaction commits.
func (q *Queue) EnqueueTx(txn *storage.Txn, ev *event.Event, opts EnqueueOptions) (int64, error) {
	if ev == nil {
		return 0, errors.New("queue: nil event")
	}
	return q.enqueuePayloadTx(txn, event.Encode(nil, ev), opts)
}

// enqueuePayloadTx buffers one pre-encoded message payload. Split from
// EnqueueTx so fan-out paths staging the same event into several
// queues encode it once and share the bytes (rows never mutate their
// payload, so sharing is safe).
func (q *Queue) enqueuePayloadTx(txn *storage.Txn, payload []byte, opts EnqueueOptions) (int64, error) {
	q.mu.Lock()
	id := q.nextID
	q.nextID++
	q.mu.Unlock()
	now := timeNow().UnixNano()
	visibleAt := int64(0)
	if opts.Delay > 0 {
		visibleAt = now + opts.Delay.Nanoseconds()
	}
	err := txn.Insert(q.tableName, map[string]val.Value{
		"id":          val.Int(id),
		"pri":         val.Int(int64(opts.Priority)),
		"visible_at":  val.Int(visibleAt),
		"attempts":    val.Int(0),
		"state":       val.String(stateReady),
		"enqueued_at": val.Int(now),
		"payload":     val.Bytes(payload),
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Target pairs a queue with enqueue options for EnqueueGroup.
type Target struct {
	Queue *Queue
	Opts  EnqueueOptions
}

// EnqueueGroup stages one event into several queues under a single
// transaction — one commit, one WAL append, one fsync (group commit),
// with the binary payload encoded once and shared across the staged
// rows. This is the broker fan-out path: an event matching N
// queue-backed subscriptions costs one transactional update batch, not
// N. All targets must share one database; the staging is atomic — on
// error nothing is enqueued anywhere.
func EnqueueGroup(ev *event.Event, targets []Target) error {
	var g Group
	if err := g.Add(ev, targets); err != nil {
		g.Rollback()
		return err
	}
	return g.Commit()
}

// Group is EnqueueGroup over several events: each Add buffers one
// event's stagings and Commit lands them all — a PUBB's worth of
// messages in one commit record. The zero value is an empty group, and
// a group is empty again after Commit or Rollback. Not safe for
// concurrent use.
type Group struct {
	db   *storage.DB
	txn  *storage.Txn
	rows int
}

// Add buffers the staging of one event into targets. After an error
// the group holds part of the event and must be rolled back.
func (g *Group) Add(ev *event.Event, targets []Target) error {
	if len(targets) == 0 {
		return nil
	}
	if ev == nil {
		return errors.New("queue: nil event")
	}
	if g.txn == nil {
		g.db = targets[0].Queue.db
		g.txn = g.db.Begin()
	}
	payload := event.Encode(nil, ev)
	for _, t := range targets {
		if t.Queue.db != g.db {
			return errors.New("queue: EnqueueGroup targets span databases")
		}
		if _, err := t.Queue.enqueuePayloadTx(g.txn, payload, t.Opts); err != nil {
			return err
		}
	}
	g.rows += len(targets)
	return nil
}

// Rows reports how many stagings the group holds.
func (g *Group) Rows() int { return g.rows }

// Commit lands every buffered staging atomically, or none of them.
func (g *Group) Commit() error {
	txn := g.txn
	*g = Group{}
	if txn == nil {
		return nil
	}
	_, err := txn.Commit()
	return err
}

// Rollback discards the buffered stagings.
func (g *Group) Rollback() {
	if g.txn != nil {
		g.txn.Rollback()
	}
	*g = Group{}
}

// Msg is a delivered message.
type Msg struct {
	Receipt Receipt
	Event   *event.Event
	// Attempt is 1 for first delivery, and one more for each earlier
	// delivery that was NACKed or timed out.
	Attempt int
	// EnqueuedAt is the original enqueue time.
	EnqueuedAt time.Time
	// Priority echoes the enqueue priority.
	Priority int
}

// Receipt identifies one delivery for Ack/Nack.
type Receipt struct {
	Queue   string
	ID      int64
	attempt int64
}

// maxClaim bounds how many messages one claim takes.
const maxClaim = 256

// Dequeue delivers the next visible message, or ok=false if none is
// ready. consumer names the caller; it is not recorded.
func (q *Queue) Dequeue(consumer string) (*Msg, bool, error) {
	msgs, err := q.DequeueBatch(consumer, 1)
	if len(msgs) == 0 {
		return nil, false, err
	}
	return msgs[0], true, nil
}

// DequeueBatch delivers up to n (at most maxClaim) visible messages, in
// the order n calls of Dequeue would — priority descending, then ID
// ascending. It settles first, then locks each message in memory until
// its visibility timeout, writing nothing; the attempt is the persisted
// attempts + 1. On a degraded database it claims nothing and returns
// storage.ErrDegraded. A message whose payload does not decode is
// claimed but left out of the result, with an error beside the
// messages that did decode: it stays in flight until its visibility
// timeout, so its attempts burn down to the dead letter.
func (q *Queue) DequeueBatch(consumer string, n int) ([]*Msg, error) {
	q.Settle() // a failure keeps its rows for the next one
	if bad, cause := q.db.Degraded(); bad {
		return nil, fmt.Errorf("%w: %s", storage.ErrDegraded, cause)
	}
	now := timeNow().UnixNano()
	q.reapExpired(now)
	type claim struct {
		id      int64
		row     storage.Row
		attempt int64
	}
	var one [1]claim // the n = 1 case claims without allocating
	claims := one[:0]
	deadline := now + q.cfg.VisibilityTimeout.Nanoseconds()
	n = min(n, maxClaim)
	for len(claims) < n {
		q.mu.Lock()
		q.promoteDueLocked(now)
		if q.ready.Len() == 0 {
			q.mu.Unlock()
			break
		}
		it := heap.Pop(&q.ready).(readyItem)
		rid, tracked := q.rowIDs[it.id]
		_, busy := q.inflight[it.id]
		q.mu.Unlock()
		if !tracked || busy {
			continue // acked or claimed meanwhile; skip
		}
		row, ok := q.table.Get(rid)
		if !ok {
			continue
		}
		if state, _ := row[4].AsString(); state == stateDead {
			continue
		}
		attempts, _ := row[3].AsInt()
		claims = append(claims, claim{id: it.id, row: row, attempt: attempts + 1})
	}
	if len(claims) == 0 {
		return nil, nil
	}
	q.mu.Lock()
	for _, c := range claims {
		pri, _ := c.row[1].AsInt()
		q.inflight[c.id] = inflightInfo{deadline: deadline, attempt: c.attempt, pri: pri}
	}
	q.reapAfter = min(q.reapAfter, deadline)
	q.mu.Unlock()

	msgs := make([]*Msg, 0, len(claims))
	var errs []error
	for _, c := range claims {
		payload, _ := c.row[7].AsBytes()
		ev, _, err := event.Decode(payload)
		if err != nil {
			errs = append(errs, fmt.Errorf("queue: corrupt payload for msg %d: %w", c.id, err))
			continue
		}
		enq, _ := c.row[5].AsInt()
		pri, _ := c.row[1].AsInt()
		msgs = append(msgs, &Msg{
			Receipt:    Receipt{Queue: q.name, ID: c.id, attempt: c.attempt},
			Event:      ev,
			Attempt:    int(c.attempt),
			EnqueuedAt: time.Unix(0, enq).UTC(),
			Priority:   int(pri),
		})
	}
	return msgs, errors.Join(errs...)
}

// ErrStaleReceipt guards acks from superseded deliveries.
var ErrStaleReceipt = errors.New("queue: stale receipt (message was redelivered)")

// ReceiptCurrent reports whether a receipt still refers to its
// message's live delivery attempt — i.e. whether an Ack with it would
// still succeed. A receipt goes stale when the message is settled,
// redelivered, or reaped after its visibility timeout. Lets delivery
// ledgers evict receipts whose acknowledgments can never arrive; pair
// with Reap so deadline-expired deliveries actually go stale even
// while no consumer is dequeuing.
func (q *Queue) ReceiptCurrent(r Receipt) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	info, ok := q.inflight[r.ID]
	return ok && info.attempt == r.attempt
}

// Reap settles, then requeues (or dead-letters) inflight messages whose
// visibility timeout has passed. Dequeue does both on every call, so
// active consumers never need Reap; it exists for idle ones — e.g. a
// delivery loop parked on a flow-control limit, which must expire the
// deliveries it is waiting on to ever unpark.
func (q *Queue) Reap() {
	q.Settle()
	q.reapExpired(timeNow().UnixNano())
}

// Ack acknowledges a delivery. The message is settled in memory at once
// — no later claim, Stats or Ack sees it — and its row is deleted by
// the next Settle. When it was the queue's last message in flight, Ack
// settles before it returns, so a fully acknowledged queue's table is
// empty. A failed settle keeps its rows for the next one.
func (q *Queue) Ack(r Receipt) error {
	q.mu.Lock()
	info, ok := q.inflight[r.ID]
	if !ok || info.attempt != r.attempt {
		q.mu.Unlock()
		return ErrStaleReceipt
	}
	q.settle = append(q.settle, q.rowIDs[r.ID])
	delete(q.inflight, r.ID)
	delete(q.rowIDs, r.ID)
	last := len(q.inflight) == 0
	q.mu.Unlock()
	if last {
		q.Settle()
	}
	return nil
}

// Settle deletes the rows of the messages acknowledged since the last
// Settle in one transaction. On failure they stay for the next Settle,
// less any that someone else deleted meanwhile, whose delete would
// refuse every later batch. DequeueBatch, Reap and Manager.Close settle,
// and so does an Ack of the last message in flight.
func (q *Queue) Settle() error {
	q.settleMu.Lock()
	defer q.settleMu.Unlock()
	q.mu.Lock()
	rows := q.settle
	q.settle = nil
	q.mu.Unlock()
	if len(rows) == 0 {
		return nil
	}
	txn := q.db.Begin()
	for _, rid := range rows {
		txn.Delete(q.tableName, rid) // refuses only a finished transaction
	}
	_, err := txn.Commit()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err == nil {
		if q.settle == nil {
			q.settle = rows[:0] // keep the list's storage for the next window
		}
		return nil
	}
	for _, rid := range rows {
		if _, ok := q.table.Get(rid); ok {
			q.settle = append(q.settle, rid)
		}
	}
	return err
}

// Nack returns a delivery to the queue after delay, writing its attempt;
// once that reaches MaxAttempts the message is dead-lettered instead.
func (q *Queue) Nack(r Receipt, delay time.Duration) error {
	q.mu.Lock()
	info, ok := q.inflight[r.ID]
	if !ok || info.attempt != r.attempt {
		q.mu.Unlock()
		return ErrStaleReceipt
	}
	rid := q.rowIDs[r.ID]
	delete(q.inflight, r.ID)
	q.mu.Unlock()
	visibleAt := int64(0)
	if delay > 0 {
		visibleAt = timeNow().UnixNano() + delay.Nanoseconds()
	}
	return q.fail(r.ID, rid, info, visibleAt)
}

// fail writes the verdict on a delivery that was NACKed or timed out:
// the message's attempts become the delivery's, and it is dead-lettered
// once they reach MaxAttempts, or else ready again from visibleAt.
func (q *Queue) fail(id int64, rid storage.RowID, info inflightInfo, visibleAt int64) error {
	state := stateReady
	if info.attempt >= int64(q.cfg.MaxAttempts) {
		state = stateDead
	}
	err := q.db.UpdateRow(q.tableName, rid, map[string]val.Value{
		"attempts": val.Int(info.attempt), "state": val.String(state), "visible_at": val.Int(visibleAt),
	})
	if err != nil {
		return err
	}
	q.mu.Lock()
	if state == stateDead {
		q.dead++
	} else {
		q.push(readyItem{id: id, pri: info.pri, visibleAt: visibleAt})
	}
	q.mu.Unlock()
	q.wake()
	return nil
}

// Release returns an unacknowledged delivery to the queue immediately
// and writes nothing, so the delivery does not count against
// MaxAttempts: the next one carries the same attempt number. It is the
// teardown path for consumers that vanish — a dropped wire connection,
// a shutting-down worker — where the delivery was never a processing
// failure: the message becomes visible to other consumers right away
// instead of waiting out the visibility timeout, and repeated
// reconnects cannot dead-letter it.
func (q *Queue) Release(r Receipt) error {
	q.mu.Lock()
	info, ok := q.inflight[r.ID]
	if !ok || info.attempt != r.attempt {
		q.mu.Unlock()
		return ErrStaleReceipt
	}
	delete(q.inflight, r.ID)
	q.push(readyItem{id: r.ID, pri: info.pri})
	q.mu.Unlock()
	q.wake()
	return nil
}

// promoteDueLocked moves due delayed messages to the ready heap.
// Caller holds q.mu.
func (q *Queue) promoteDueLocked(now int64) {
	for q.delayed.Len() > 0 && q.delayed[0].visibleAt <= now {
		it := heap.Pop(&q.delayed).(readyItem)
		it.visibleAt = 0
		heap.Push(&q.ready, it)
	}
}

// reapExpired requeues inflight messages whose visibility timeout passed
// (consumer crashed or stalled); exhausted messages are dead-lettered.
// It runs on every Dequeue, so it looks at the in-flight set only once
// the clock has reached reapAfter.
func (q *Queue) reapExpired(now int64) {
	type expired struct {
		id   int64
		rid  storage.RowID
		info inflightInfo
	}
	var exp []expired
	q.mu.Lock()
	if now < q.reapAfter {
		q.mu.Unlock()
		return
	}
	q.reapAfter = math.MaxInt64
	for id, info := range q.inflight {
		if info.deadline > now {
			q.reapAfter = min(q.reapAfter, info.deadline)
			continue
		}
		delete(q.inflight, id)
		if rid, ok := q.rowIDs[id]; ok {
			exp = append(exp, expired{id: id, rid: rid, info: info})
		}
	}
	q.mu.Unlock()
	for _, e := range exp {
		q.fail(e.id, e.rid, e.info, 0)
	}
}

// push routes an item to the ready or delayed heap. Caller holds q.mu.
func (q *Queue) push(it readyItem) {
	if it.visibleAt > timeNow().UnixNano() {
		heap.Push(&q.delayed, it)
	} else {
		it.visibleAt = 0
		heap.Push(&q.ready, it)
	}
}

func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// WaitDequeue blocks until a message is available, the timeout elapses,
// or the done channel closes.
func (q *Queue) WaitDequeue(consumer string, timeout time.Duration, done <-chan struct{}) (*Msg, bool, error) {
	msgs, err := q.WaitDequeueBatch(consumer, 1, timeout, done)
	if len(msgs) == 0 {
		return nil, false, err
	}
	return msgs[0], true, nil
}

// WaitDequeueBatch is DequeueBatch that blocks while nothing is ready,
// until the timeout elapses or the done channel closes. It returns as
// soon as at least one message is claimed, with as many as were ready
// (up to n): it does not wait for a batch to fill.
func (q *Queue) WaitDequeueBatch(consumer string, n int, timeout time.Duration, done <-chan struct{}) ([]*Msg, error) {
	deadline := timeNow().Add(timeout)
	for {
		msgs, err := q.DequeueBatch(consumer, n)
		if err != nil || len(msgs) > 0 {
			return msgs, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		wait := 5 * time.Millisecond
		if remaining < wait {
			wait = remaining
		}
		timer := time.NewTimer(wait)
		select {
		case <-q.notify:
			timer.Stop()
		case <-timer.C:
		case <-done:
			timer.Stop()
			return nil, nil
		}
	}
}

// Stats summarizes queue contents by state.
type Stats struct {
	Ready    int
	Inflight int
	Dead     int
}

// Stats counts the queue's messages from memory: in flight are the
// claimed ones, ready the rest of those neither dead nor acknowledged.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{Inflight: len(q.inflight), Dead: q.dead}
	s.Ready = len(q.rowIDs) - s.Inflight - s.Dead
	return s
}

// DeadLetters returns the message IDs and events of dead-lettered
// messages.
func (q *Queue) DeadLetters() ([]int64, []*event.Event, error) {
	var ids []int64
	var evs []*event.Event
	var decodeErr error
	q.table.Scan(func(_ storage.RowID, r storage.Row) bool {
		state, _ := r[4].AsString()
		if state != stateDead {
			return true
		}
		id, _ := r[0].AsInt()
		payload, _ := r[7].AsBytes()
		ev, _, err := event.Decode(payload)
		if err != nil {
			decodeErr = err
			return false
		}
		ids = append(ids, id)
		evs = append(evs, ev)
		return true
	})
	return ids, evs, decodeErr
}

// Requeue returns a dead-lettered message to service: state and
// attempts are reset in one transaction and the message becomes
// immediately deliverable with a fresh attempt budget.
func (q *Queue) Requeue(id int64) error {
	q.mu.Lock()
	rid, ok := q.rowIDs[id]
	q.mu.Unlock()
	if !ok {
		return fmt.Errorf("queue: no message %d", id)
	}
	row, ok := q.table.Get(rid)
	if !ok {
		return fmt.Errorf("queue: no message %d", id)
	}
	if state, _ := row[4].AsString(); state != stateDead {
		return fmt.Errorf("queue: message %d is not dead-lettered", id)
	}
	err := q.db.UpdateRow(q.tableName, rid, map[string]val.Value{
		"state": val.String(stateReady), "visible_at": val.Int(0), "attempts": val.Int(0),
	})
	if err != nil {
		return err
	}
	pri, _ := row[1].AsInt()
	q.mu.Lock()
	q.dead--
	q.push(readyItem{id: id, pri: pri})
	q.mu.Unlock()
	q.wake()
	return nil
}

// DecodeStagedInsert decodes a committed INSERT into a queue's backing
// table back into the staged message's id and original event. It is
// the journal-backfill path: mining the WAL for q_<name> inserts
// replays every message ever staged into the queue — including ones
// long since acknowledged and deleted — so a durable subscriber can
// reconstruct history from a log position (the paper's hybrid
// historical+live consumption).
func DecodeStagedInsert(c *storage.Change) (id int64, ev *event.Event, err error) {
	if c.Kind != storage.Insert || c.New == nil {
		return 0, nil, errors.New("queue: change is not a staged insert")
	}
	if len(c.New) < 8 {
		return 0, nil, fmt.Errorf("queue: staged row has %d columns, want 8", len(c.New))
	}
	id, _ = c.New[0].AsInt()
	payload, ok := c.New[7].AsBytes()
	if !ok {
		return 0, nil, fmt.Errorf("queue: staged message %d has no payload", id)
	}
	ev, _, err = event.Decode(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("queue: corrupt staged payload for msg %d: %w", id, err)
	}
	return id, ev, nil
}

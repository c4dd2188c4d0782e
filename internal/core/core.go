// Package core wires the substrates into the paper's event-driven
// architecture: capture (triggers, journal mining, query differs) →
// staging (queues) → evaluation (rules, pub/sub, CEP, continuous
// queries) → consumption (subscriptions, staging queues, forwarding to
// external services).
//
// The Engine is the deliverable a downstream user adopts; the root
// package eventdb re-exports it as the public API.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/event"
	"eventdb/internal/journal"
	"eventdb/internal/metrics"
	"eventdb/internal/pubsub"
	"eventdb/internal/query"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/vfs"
)

// Config configures Open.
type Config struct {
	// Dir enables durability (WAL, recoverable queues/tables). Empty
	// means fully in-memory.
	Dir string
	// SyncEvery controls WAL fsync cadence (0 = batched by the OS).
	SyncEvery int
	// FS is the filesystem every durability path (WAL, columnar
	// segments) writes through. Nil means the real one; tests inject
	// vfs.Faulty to drive disk-failure scenarios.
	FS vfs.FS

	// ShedHighWater arms queue-depth overload shedding on a sharded
	// engine: when aggregate shard occupancy exceeds this fraction of
	// total capacity (0 < f <= 1), Overloaded reports true and the
	// server sheds low-priority publishers with an error instead of
	// blocking them. 0 disables.
	ShedHighWater float64
	// ShedMemoryBytes arms memory overload shedding: when the Go heap
	// in use exceeds this many bytes, Overloaded reports true. The heap
	// probe is cached for ~250ms so checking is cheap on the hot path.
	// 0 disables.
	ShedMemoryBytes uint64

	// Shards enables the asynchronous sharded ingest pipeline: events
	// are hash-partitioned by shard key across this many workers, each
	// draining a bounded buffer through the same evaluation pass. Events
	// sharing a key process in arrival order on a single shard, and
	// nothing else is ordered: the default key is the event type, so
	// above 1 a subscription filter, queue binding or pattern spanning
	// types sees deliveries missing, reordered and duplicated until
	// events carry an admission sequence (ROADMAP item 2). 0 (the
	// default) keeps Ingest fully synchronous on the caller's
	// goroutine. With shards, rule actions and subscription
	// handlers run on shard goroutines and must be safe for concurrent
	// use across shards; a handler that re-ingests directly should use
	// IngestSync (or DropOnFull) — under BlockOnFull, a blocking
	// Ingest from a shard goroutine into its own full shard would
	// deadlock. The engine's own capture paths (triggers, watched
	// queries, journal tail) are re-entrancy-safe.
	Shards int
	// ShardBuffer is each shard's bounded queue capacity (default 1024).
	ShardBuffer int
	// Backpressure selects what a full shard buffer does to publishers:
	// BlockOnFull (default) blocks until the shard drains; DropOnFull
	// drops the event and counts it in pipeline.shard<N>.drops.
	Backpressure Backpressure
	// ShardKey derives the partition key from an event; nil partitions
	// by event type.
	ShardKey func(*event.Event) string

	// ColumnarDisabled turns off the columnar history store. By default
	// every engine seals committed table history into immutable column
	// segments that serve full-scan queries and REPLAY backfill.
	ColumnarDisabled bool
	// ColumnarSealRows overrides the pending-row threshold at which a
	// table's history is sealed into a segment (default 8192).
	ColumnarSealRows int
	// ColumnarSealInterval overrides the background sealer cadence
	// (default 200ms).
	ColumnarSealInterval time.Duration

	// CEPAdvanceInterval is the cadence of the clock that expires
	// partial pattern matches on quiet streams (default 500ms).
	CEPAdvanceInterval time.Duration
	// CEPMaxInstances caps live partial pattern matches across all
	// registered patterns (default 1<<20); oldest are dropped beyond it.
	CEPMaxInstances int
}

// Engine is the assembled event-processing platform.
type Engine struct {
	DB       *storage.DB
	Queues   *queue.Manager
	Triggers *trigger.Manager
	Miner    *journal.Miner
	Broker   *pubsub.Broker
	Rules    *rules.Engine
	Metrics  *metrics.Registry
	// History is the columnar history store (nil when disabled).
	History *columnar.Manager

	ingestCount atomic.Uint64
	closed      atomic.Bool

	// pipeline is the async sharded front door (nil when Shards == 0).
	pipeline *pipeline
	// cep is the shared-automaton pattern registry (see cep.go).
	cep *cepRegistry
	// scratch pools the (matcher, publisher) pairs evaluation runs with.
	scratch sync.Pool

	// watches is the scheduled watched-query registry (see watch.go).
	watchMu sync.Mutex
	watches map[string]*watchEntry

	// Overload watermarks (see health.go).
	shedHighWater float64
	shedMemBytes  uint64
	memCheckedAt  atomic.Int64  // unix nanos of the last heap probe
	memHeapInUse  atomic.Uint64 // cached heap-in-use from that probe
}

// Open assembles an engine.
func Open(cfg Config) (*Engine, error) {
	db, err := storage.Open(storage.Options{Dir: cfg.Dir, SyncEvery: cfg.SyncEvery, FS: cfg.FS})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		shedHighWater: cfg.ShedHighWater,
		shedMemBytes:  cfg.ShedMemoryBytes,
		DB:            db,
		Queues:        queue.NewManager(db),
		Miner:         journal.NewMiner(db),
		Broker:        pubsub.NewBroker(),
		Rules:         rules.NewEngine(),
		Metrics:       metrics.NewRegistry(),
	}
	if !cfg.ColumnarDisabled {
		ccfg := columnar.Config{
			SealRows:     cfg.ColumnarSealRows,
			SealInterval: cfg.ColumnarSealInterval,
			FS:           cfg.FS,
		}
		if cfg.Dir != "" {
			ccfg.Dir = filepath.Join(cfg.Dir, "segments")
		}
		hist, err := columnar.Attach(db, ccfg)
		if err != nil {
			db.Close()
			return nil, err
		}
		e.History = hist
	}
	e.scratch.New = func() any {
		return &batchScratch{m: e.Rules.NewMatcher(), pub: e.Broker.NewPublisher()}
	}
	if cfg.Shards > 0 {
		e.pipeline = newPipeline(e, cfg)
	}
	e.cep = newCEPRegistry(e, cfg)
	// Trigger-captured events flow into the ingest path. The capture
	// variant never blocks: a trigger can fire on a shard goroutine (a
	// rule action writing to a captured table), where a blocking send
	// into that worker's own full buffer would deadlock the pipeline.
	e.Triggers = trigger.NewManager(db, func(ev *event.Event) {
		if err := e.ingestCapture(ev); err != nil {
			e.Metrics.Counter("ingest.errors").Inc()
		}
	})
	return e, nil
}

var errNilEvent = errors.New("core: nil event")

// batchScratch is the (matcher, publisher) pair an evaluation pass uses.
type batchScratch struct {
	m   *rules.Matcher
	pub *pubsub.Publisher
}

// Close shuts the engine down: stops capture, drains the async
// pipeline's in-flight events, then flushes the WAL.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Watches first: they generate fresh capture events, and everything
	// they produce before the pipeline drain below still evaluates.
	e.stopAllWatches()
	// Drain the pipeline before detaching trigger capture: draining
	// events' rule actions can still write to captured tables, and
	// those cascades must be captured (they evaluate inline via
	// ingestCapture once intake is closed).
	if e.pipeline != nil {
		e.pipeline.close()
	}
	// The draining shards fed the automaton themselves, and its last
	// matches evaluated inline while triggers were still attached; what
	// is left to stop is the horizon clock.
	e.cep.close()
	e.Triggers.Close()
	e.Queues.Close()
	if e.History != nil {
		e.History.Close()
	}
	return e.DB.Close()
}

// Compact force-seals pending columnar history into segments — all
// tables when table is empty — and returns per-table segment stats.
// It errors when the columnar store is disabled.
func (e *Engine) Compact(table string) ([]columnar.TableStats, error) {
	if e.History == nil {
		return nil, errors.New("core: columnar history disabled")
	}
	return e.History.Compact(table)
}

// SegmentStats reports per-table columnar store statistics (empty when
// the columnar store is disabled).
func (e *Engine) SegmentStats() []columnar.TableStats {
	if e.History == nil {
		return nil
	}
	return e.History.Stats()
}

// Ingest pushes one event through the evaluation layer: rules fire
// first (highest priority first), then pub/sub delivers to subscribers,
// then the pattern automaton observes it. This is the paper's core flow
// — events in, valuable information out.
//
// On a synchronous engine (Config.Shards == 0) evaluation completes
// before Ingest returns. With shards, Ingest enqueues to the event's
// shard and returns once accepted; evaluation errors are counted in
// the ingest.errors metric, and Flush/Close drain the backlog.
func (e *Engine) Ingest(ev *event.Event) error {
	_, err := e.IngestCount(ev)
	return err
}

// IngestSync runs the full evaluation pass on the caller's goroutine
// regardless of pipeline mode.
func (e *Engine) IngestSync(ev *event.Event) error {
	if e.closed.Load() {
		return ErrClosed
	}
	_, err := e.ingestSync(ev)
	return err
}

// ingestSync is IngestSync without the closed check, so capture
// cascades during Close's drain still evaluate. It returns the
// delivery count so callers that answer for one event (the wire
// protocol's PUB) don't have to infer it from shared counters.
func (e *Engine) ingestSync(ev *event.Event) (int, error) {
	one := [1]*event.Event{ev}
	return e.evaluateBatch(one[:], true, "ingest.latency")
}

// IngestCount is Ingest returning this event's exact delivery count.
// On an async engine the event is only enqueued, evaluation happens
// later on a shard goroutine, and the count is reported as 0.
func (e *Engine) IngestCount(ev *event.Event) (int, error) {
	if e.pipeline != nil {
		return 0, e.pipeline.enqueue(ev)
	}
	if e.closed.Load() {
		return 0, ErrClosed
	}
	return e.ingestSync(ev)
}

// IngestBatch pushes a batch through the evaluation layer, amortizing
// match scratch and metric updates across the batch. With shards, the
// batch is partitioned across workers and events sharing a shard key
// keep their relative order; otherwise the batch evaluates in order on
// the caller's goroutine. Processing stops at the first error.
func (e *Engine) IngestBatch(evs []*event.Event) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.ingestBatch(evs, true)
}

// ingestBatch hands a batch to the shards, or evaluates it here on a
// synchronous engine. With stopOnError the first failure ends the batch
// and is returned (IngestBatch's contract); without, failures are
// counted in ingest.errors and the rest proceeds (the capture paths'
// contract — one bad event must not discard a burst).
func (e *Engine) ingestBatch(evs []*event.Event, stopOnError bool) error {
	if e.pipeline == nil {
		_, err := e.evaluateBatch(evs, stopOnError, "ingest.batch.latency")
		return err
	}
	for _, ev := range evs {
		if err := e.pipeline.enqueue(ev); err != nil {
			if stopOnError {
				return err
			}
			e.Metrics.Counter("ingest.errors").Inc()
		}
	}
	return nil
}

// ingestCapture is the ingest variant used by the engine's own capture
// callbacks (triggers, watched queries, pattern matches): like Ingest,
// but on an async engine it never blocks — if the target shard's buffer
// is full the event is evaluated inline on the capturing goroutine
// instead. That keeps re-entrant capture (a rule action writing to a
// captured table from a shard goroutine) deadlock-free at the cost of
// shard-ordering for the overflow event.
func (e *Engine) ingestCapture(ev *event.Event) error {
	if e.pipeline != nil && e.pipeline.tryEnqueue(ev) {
		return nil
	}
	// No pipeline, a full buffer or a closed pipeline: evaluate inline.
	// The closed case is Close's drain — a draining event's rule action
	// can still capture-cascade, and those derived events must not be
	// lost for "Close drains in-flight events" to hold.
	_, err := e.ingestSync(ev)
	return err
}

// evaluateBatch is the accounting around evaluate, for a publisher's
// goroutine and a shard worker alike: it runs the batch in order with a
// pooled scratch pair (re-entrant ingestion — a rule action capturing
// back into the engine — borrows another), settles the shared counters
// once, those atomics being the contended cache lines on a many-shard
// box, and returns the deliveries made.
func (e *Engine) evaluateBatch(evs []*event.Event, stopOnError bool, latency string) (int, error) {
	// The scratch goes back only on the way out of a whole pass: one a
	// panicking rule action left mid-batch is dropped with what it holds.
	sc := e.scratch.Get().(*batchScratch)
	start := time.Now()
	var attempted, delivered int
	var firstErr error
	// The queue stagings of a multi-event batch share transactions (a
	// PUBB is one staging commit); a batch of one commits inside its
	// Publish, and its count is exact when that returns.
	batch := len(evs) > 1
	if batch {
		sc.pub.BeginBatch()
	}
	for _, ev := range evs {
		err := errNilEvent
		if ev != nil {
			attempted++
			var n int
			n, err = e.evaluate(ev, sc)
			delivered += n
		}
		if err == nil {
			continue
		}
		if stopOnError {
			firstErr = err
			break
		}
		e.Metrics.Counter("ingest.errors").Inc()
	}
	if batch {
		// Also after an error: the events before it were evaluated, and
		// their queue deliveries are still only buffered.
		n, err := sc.pub.EndBatch()
		delivered += n
		if err != nil {
			if !stopOnError {
				e.Metrics.Counter("ingest.errors").Inc()
			} else if firstErr == nil {
				firstErr = fmt.Errorf("core: publish: %w", err)
			}
		}
	}
	e.ingestCount.Add(uint64(attempted))
	e.Metrics.Counter("events.in").Add(uint64(attempted))
	e.Metrics.Counter("events.delivered").Add(uint64(delivered))
	e.Metrics.Histogram(latency).Observe(time.Since(start))
	e.scratch.Put(sc)
	return delivered, firstErr
}

// evaluate is the paper's internal evaluation step (§2.2.c), written
// once: rules fire, pub/sub delivers, and the pattern automaton
// observes the event — in that order whichever goroutine runs it, the
// publisher's or a shard worker's. It returns the delivery count.
func (e *Engine) evaluate(ev *event.Event, sc *batchScratch) (int, error) {
	if _, err := sc.m.Eval(ev); err != nil {
		return 0, fmt.Errorf("core: rules: %w", err)
	}
	n, err := sc.pub.Publish(ev)
	if err != nil {
		return 0, fmt.Errorf("core: publish: %w", err)
	}
	e.cep.observe(ev)
	return n, nil
}

// Ingested reports the number of events pushed through Ingest.
func (e *Engine) Ingested() uint64 { return e.ingestCount.Load() }

// SetReadOnly flips follower mode on the underlying database: local
// mutations (DML, DDL, durable enqueues) fail with storage.ErrReadOnly
// while replicated records keep applying. Ephemeral reads — SELECT,
// SUB, MATCH — are unaffected.
func (e *Engine) SetReadOnly(ro bool) { e.DB.SetReadOnly(ro) }

// ReadOnly reports whether the engine is in follower mode.
func (e *Engine) ReadOnly() bool { return e.DB.ReadOnly() }

// CaptureTable installs an AFTER trigger on a table so every committed
// change enters the ingest path as a "db.<table>.<op>" event — capture
// path 1 of the paper.
func (e *Engine) CaptureTable(table string) error {
	_, err := e.Triggers.Register(trigger.Def{
		Name:   "capture_" + table,
		Table:  table,
		Timing: trigger.After,
	})
	return err
}

// TailJournal starts live journal capture (capture path 2) into the
// ingest path, returning a stop function. Journal events go through the
// same pipeline as trigger capture, so downstream logic is agnostic to
// the capture mechanism.
func (e *Engine) TailJournal(f journal.Filter, buffer int) (stop func()) {
	sub := e.Miner.Tail(f, buffer)
	done := make(chan struct{})
	go func() {
		// Drain opportunistically into batches so a burst of journal
		// records pays per-event overhead once per batch, not per event.
		batch := make([]*event.Event, 0, 64)
		for {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					return
				}
				batch = drainInto(sub.C, append(batch[:0], ev))
				e.ingestBatch(batch, false)
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		sub.Cancel()
	}
}

// WatchedQuery is a query differ bound to the ingest path (capture
// path 3).
type WatchedQuery struct {
	differ *query.Differ
	engine *Engine
}

// WatchQuery creates a watched query; call Poll on a schedule. Result-
// set changes become "query.<name>.<added|removed|changed>" events.
func (e *Engine) WatchQuery(name string, q *query.Query, keyCols ...string) *WatchedQuery {
	return &WatchedQuery{differ: query.NewDiffer(name, q, e.DB, keyCols...), engine: e}
}

// Poll evaluates the query and ingests any result-set change events,
// returning how many were produced. Like the other capture paths it
// never blocks on a full shard buffer, so it is safe to call from rule
// actions and handlers on an async engine.
func (w *WatchedQuery) Poll() (int, error) {
	evs, err := w.differ.PollEvents()
	if err != nil {
		return 0, err
	}
	for _, ev := range evs {
		if err := w.engine.ingestCapture(ev); err != nil {
			return 0, err
		}
	}
	return len(evs), nil
}

// CreateQueue makes a staging area (durable when the engine is).
func (e *Engine) CreateQueue(name string, cfg queue.Config) (*queue.Queue, error) {
	return e.Queues.Create(name, cfg)
}

// EnsureQueue returns the named staging queue, attaching to its
// recovered backing table or creating it as needed — the idempotent
// entry point for durable consumers that must work the same on first
// contact, after a reconnect, and after an engine restart.
func (e *Engine) EnsureQueue(name string, cfg queue.Config) (*queue.Queue, error) {
	if q, ok := e.Queues.Get(name); ok {
		return q, nil
	}
	if q, err := e.Queues.Open(name, cfg); err == nil {
		return q, nil
	}
	q, err := e.Queues.Create(name, cfg)
	if err != nil {
		// Lost a create race: the table exists now, so attach to it.
		if q2, err2 := e.Queues.Open(name, cfg); err2 == nil {
			return q2, nil
		}
		return nil, err
	}
	return q, nil
}

// ReplayQueue mines the WAL journal for messages staged into a queue
// and decodes each back into its original event — including messages
// long since acknowledged and deleted, because the redo log remembers
// every INSERT. This is the paper's hybrid historical+live consumption
// (§2.2.a.ii): a durable subscriber backfills from a log position,
// then goes live on the queue. Returns the next LSN to resume from and
// how many messages were replayed. Requires a durable engine
// (journal.ErrNotDurable otherwise).
func (e *Engine) ReplayQueue(name string, fromLSN uint64, fn func(ev *event.Event, lsn uint64, msgID int64) error) (nextLSN uint64, replayed int, err error) {
	f := journal.Filter{
		Tables: []string{queue.TableName(name)},
		Ops:    []storage.ChangeKind{storage.Insert},
	}
	nextLSN, err = e.Miner.MineChanges(fromLSN, f, func(lsn uint64, c *storage.Change) error {
		id, ev, err := queue.DecodeStagedInsert(c)
		if err != nil {
			return err
		}
		replayed++
		return fn(ev, lsn, id)
	})
	return nextLSN, replayed, err
}

// SubscribeQueue routes matching events into a staging queue.
func (e *Engine) SubscribeQueue(subID, subscriber, filter, queueName string, priority int) error {
	q, ok := e.Queues.Get(queueName)
	if !ok {
		return fmt.Errorf("core: no queue %q", queueName)
	}
	return e.Broker.SubscribeQueue(subID, subscriber, filter, q, priority)
}

// Subscribe routes matching events to a callback.
func (e *Engine) Subscribe(subID, subscriber, filter string, h pubsub.Handler) error {
	return e.Broker.Subscribe(subID, subscriber, filter, h)
}

// AddRule installs a rule in the engine's indexed rule set.
func (e *Engine) AddRule(name, condition string, priority int, action rules.Action) error {
	_, err := e.Rules.Add(name, condition, priority, action)
	return err
}

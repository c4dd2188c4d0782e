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

	// ShedMemoryBytes arms memory overload shedding: when the Go heap
	// in use exceeds this many bytes, Overloaded reports true and the
	// server sheds low-priority publishers with an error. The heap
	// probe is cached for ~250ms so checking is cheap on the hot path.
	// 0 disables.
	ShedMemoryBytes uint64

	// ColumnarDisabled turns off the columnar history store. By default
	// every engine seals committed table history into immutable column
	// segments that serve full-scan queries.
	ColumnarDisabled bool
	// ColumnarSealRows overrides the width of the row-id ranges a
	// table's history is cut into segments by (default 8192).
	ColumnarSealRows int
	// ColumnarSealInterval overrides the background sealer cadence
	// (default 200ms).
	ColumnarSealInterval time.Duration

	// CEPAdvanceInterval is the cadence of the clock that expires
	// partial pattern matches on quiet streams (default 500ms).
	CEPAdvanceInterval time.Duration
	// WatchInterval is the poll cadence of watched queries whose spec
	// does not set interval_ms (default 100ms).
	WatchInterval time.Duration
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

	// regMu serialises the registrations, so that a catalogue row and
	// the registration it stands for change together, and guards
	// watches (watch.go); catalogue is nil until RestoreRegistrations.
	regMu         sync.Mutex
	catalogue     *storage.Table
	restoring     bool // RestoreRegistrations is re-registering its rows
	watches       map[string]*watchEntry
	watchInterval time.Duration

	// cep is the shared-automaton pattern registry (see cep.go).
	cep *cepRegistry
	// scratch pools the (matcher, publisher) pairs evaluation runs with.
	scratch sync.Pool

	// Overload watermark (see health.go).
	shedMemBytes uint64
	memCheckedAt atomic.Int64  // unix nanos of the last heap probe
	memHeapInUse atomic.Uint64 // cached heap-in-use from that probe
}

// Open assembles an engine.
func Open(cfg Config) (*Engine, error) {
	db, err := storage.Open(storage.Options{Dir: cfg.Dir, SyncEvery: cfg.SyncEvery, FS: cfg.FS})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		shedMemBytes:  cfg.ShedMemoryBytes,
		watchInterval: cfg.WatchInterval,
		DB:            db,
		Queues:        queue.NewManager(db),
		Miner:         journal.NewMiner(db),
		Broker:        pubsub.NewBroker(),
		Rules:         rules.NewEngine(),
		Metrics:       metrics.NewRegistry(),
	}
	if e.watchInterval <= 0 {
		e.watchInterval = defaultWatchInterval
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
	e.cep = newCEPRegistry(e, cfg)
	// Trigger-captured events evaluate inline on the goroutine that
	// delivers the commit: the committer's own, unless another
	// goroutine is already delivering commits in commit order.
	e.Triggers = trigger.NewManager(db, func(ev *event.Event) {
		if _, err := e.ingestSync(ev); err != nil {
			e.Metrics.Counter("ingest.errors").Inc()
		}
	})
	return e, nil
}

var errNilEvent = errors.New("core: nil event")

// ErrClosed is returned by ingestion after Close.
var ErrClosed = errors.New("core: engine closed")

// batchScratch is the (matcher, publisher) pair an evaluation pass uses.
type batchScratch struct {
	m   *rules.Matcher
	pub *pubsub.Publisher
}

// Close shuts the engine down: stops capture, then flushes the WAL.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Watches first: a poll in flight still evaluates what it captured,
	// and its cascades are captured, while triggers are attached.
	e.stopAllWatches()
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
// Evaluation runs on the caller's goroutine and completes before Ingest
// returns, cascades included — a pattern's composite, and a rule
// action's write to a captured table unless another goroutine is
// delivering commits at the time (it then evaluates the capture, in
// commit order). Ingest is safe from many goroutines.
func (e *Engine) Ingest(ev *event.Event) error {
	_, err := e.IngestCount(ev)
	return err
}

// ingestSync is IngestCount without the closed check: the engine's own
// capture paths (triggers, watched queries, pattern matches) call it,
// so a cascade already under way still evaluates while Close runs.
func (e *Engine) ingestSync(ev *event.Event) (int, error) {
	one := [1]*event.Event{ev}
	return e.evaluateBatch(one[:], true, "ingest.latency")
}

// IngestCount is Ingest returning this event's exact delivery count, so
// callers that answer for one event (the wire protocol's PUB) don't
// have to infer it from shared counters.
func (e *Engine) IngestCount(ev *event.Event) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	return e.ingestSync(ev)
}

// IngestBatch pushes a batch through the evaluation layer in order on
// the caller's goroutine, amortizing match scratch and metric updates
// across the batch. Processing stops at the first error.
func (e *Engine) IngestBatch(evs []*event.Event) error {
	if e.closed.Load() {
		return ErrClosed
	}
	_, err := e.evaluateBatch(evs, true, "ingest.batch.latency")
	return err
}

// evaluateBatch is the accounting around evaluate: it runs the batch in
// order with a pooled scratch pair (re-entrant ingestion — a rule
// action capturing back into the engine — borrows another), settles the
// shared counters once per batch, and returns the deliveries made. With
// stopOnError the first failure ends the batch and is returned
// (IngestBatch's contract); without, failures are counted in
// ingest.errors and the rest proceeds (the journal tail's contract —
// one bad event must not discard a burst).
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
// observes the event, in that order. It returns the delivery count.
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
// ingest path: changes committed from now on are read back from the WAL
// and go through the same evaluation as trigger capture, so downstream
// logic is agnostic to the capture mechanism. They evaluate on the
// tail's own goroutine, one batch per pass over the log; a slow handler
// delays capture and loses nothing. stop ends capture once the pass in
// flight has evaluated and returns what ended it early, if anything. A
// volatile engine has no log to tail: it gets journal.ErrNotDurable and
// captures with CaptureTable.
func (e *Engine) TailJournal(f journal.Filter) (stop func() error, err error) {
	if !e.DB.Durable() {
		return nil, journal.ErrNotDurable
	}
	from := e.DB.WAL().NextLSN()
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.Miner.Tail(from, f, quit, func(evs []*event.Event) error {
			e.evaluateBatch(evs, false, "ingest.batch.latency")
			return nil
		})
	}()
	return func() error {
		close(quit)
		return <-done
	}, nil
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
// returning how many were produced. The events evaluate on the caller's
// goroutine before Poll returns.
func (w *WatchedQuery) Poll() (int, error) {
	evs, err := w.differ.PollEvents()
	if err != nil {
		return 0, err
	}
	for _, ev := range evs {
		if _, err := w.engine.ingestSync(ev); err != nil {
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
// every INSERT: one pass of the WAL's cursor reads them, columnar store
// or not. This is the paper's hybrid historical+live consumption
// (§2.2.a.ii): a durable subscriber backfills from a log position, then
// goes live on the queue. Returns the next LSN to resume from and how
// many messages were replayed. Requires a durable engine
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

// Package eventdb is an event-processing platform built from database
// technology, reproducing the architecture of Chandy & Gawlick,
// "Event Processing Using Database Technology" (SIGMOD 2007).
//
// Events are captured from database state by triggers, journal (WAL)
// mining, or query-result diffing; staged in transactional queues that
// are themselves database tables; evaluated against indexed rule sets,
// stored subscriptions, CEP patterns and continuous queries; and
// consumed by handlers in process, from staging queues, or over the
// wire (cmd/eventdbd, package client).
//
// Quick start:
//
//	eng, err := eventdb.Open(eventdb.Config{Dir: "data"})
//	if err != nil { ... }
//	defer eng.Close()
//
//	eng.AddRule("hot", "temp > 30", 0, func(ev *eventdb.Event, _ *eventdb.Rule) {
//		fmt.Println("hot:", ev)
//	})
//	eng.Ingest(eventdb.NewEvent("reading", map[string]any{"temp": 35}))
//
// # Ingestion
//
// Ingest evaluates on the caller's goroutine — rules, then pub/sub,
// then patterns — and returns once the event and what it cascaded into
// have been evaluated (see Engine.Ingest). Ingest is safe from many
// goroutines; rule actions and subscription handlers then run on each
// of them and must be safe for concurrent use.
// Engine.IngestBatch evaluates a slice of events in order with shared
// match scratch, amortizing per-event overhead.
//
// The subpackages under internal/ implement each subsystem; this package
// re-exports the surface a downstream application needs.
package eventdb

import (
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/journal"
	"eventdb/internal/pubsub"
	"eventdb/internal/query"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Config configures Open. See core.Config.
type Config = core.Config

// Engine is the assembled event-processing platform. See core.Engine.
type Engine = core.Engine

// Open assembles an engine from a configuration.
func Open(cfg Config) (*Engine, error) { return core.Open(cfg) }

// ErrClosed is returned by ingestion after Engine.Close.
var ErrClosed = core.ErrClosed

// Event is a typed, timestamped record of an occurrence.
type Event = event.Event

// NewEvent builds an event with a fresh ID and the current time.
// Attribute values are converted from native Go types.
func NewEvent(typ string, attrs map[string]any) *Event { return event.New(typ, attrs) }

// Value is the engine's typed scalar (null, bool, int, float, string,
// time, bytes).
type Value = val.Value

// Rule is one condition→action rule in the rules engine.
type Rule = rules.Rule

// Queue is a transactional staging area backed by a database table.
type Queue = queue.Queue

// QueueConfig tunes a queue's redelivery behaviour.
type QueueConfig = queue.Config

// Msg is a delivered queue message.
type Msg = queue.Msg

// Delivery is a matched (subscription, event) pair.
type Delivery = pubsub.Delivery

// Schema describes a storage table.
type Schema = storage.Schema

// Column describes one table column.
type Column = storage.Column

// JournalFilter restricts journal capture to tables/operations.
type JournalFilter = journal.Filter

// Query builds a filtered/projected/aggregated read over tables; used
// with Engine.WatchQuery for query-based capture.
func Query(table string) *query.Query { return query.New(table) }

// NewSchema validates a table definition.
func NewSchema(name string, cols []Column, primaryKey ...string) (*Schema, error) {
	return storage.NewSchema(name, cols, primaryKey...)
}

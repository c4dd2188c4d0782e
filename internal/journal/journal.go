// Package journal implements redo-log mining, the second of the paper's
// capture mechanisms (§2.2.a.ii "capturing events using journals"). It
// is the analogue of commercial log-mining tools: committed changes are
// read from the write-ahead log — decoupled from the transaction path —
// and converted to events.
//
// The WAL is the only source of mined history; the columnar store's
// copy of it serves scans. Both modes read the log through one
// wal.Cursor:
//
//   - Mine: one pass over an LSN range of the persisted WAL, e.g. for
//     catch-up after downtime or retrospective analysis (REPLAY).
//   - Tail: live capture; storage.DB.Follow keeps reading as commits
//     land, and a slow consumer falls behind by LSN instead of losing
//     changes.
package journal

import (
	"errors"
	"fmt"
	"slices"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
	"eventdb/internal/wal"
)

// Filter restricts which changes are mined. Zero value passes everything.
type Filter struct {
	// Tables restricts capture to these tables (nil = all).
	Tables []string
	// Ops restricts capture to these change kinds (nil = all).
	Ops []storage.ChangeKind
}

// admits reports whether f passes c.
func (f Filter) admits(c *storage.Change) bool {
	return (len(f.Tables) == 0 || slices.Contains(f.Tables, c.Table)) &&
		(len(f.Ops) == 0 || slices.Contains(f.Ops, c.Kind))
}

// Miner converts committed changes into events.
type Miner struct {
	db *storage.DB
}

// NewMiner creates a miner over a database. Both modes require the
// database to be durable (WAL-backed).
func NewMiner(db *storage.DB) *Miner { return &Miner{db: db} }

// ErrNotDurable is returned by Mine and Tail on a volatile database.
var ErrNotDurable = errors.New("journal: database has no WAL to mine")

// Mine replays committed changes with LSN >= fromLSN from the WAL,
// invoking fn for each matching change event. It returns the next LSN to
// resume from.
func (m *Miner) Mine(fromLSN uint64, f Filter, fn func(*event.Event) error) (nextLSN uint64, err error) {
	return m.MineChanges(fromLSN, f, func(lsn uint64, c *storage.Change) error {
		if ev := m.event(lsn, c); ev != nil {
			return fn(ev)
		}
		return nil
	})
}

// event converts one mined change; nil when its table is gone (dropped
// or filtered during recovery).
func (m *Miner) event(lsn uint64, c *storage.Change) *event.Event {
	tbl, ok := m.db.Table(c.Table)
	if !ok {
		return nil
	}
	ev := trigger.ChangeToEvent(tbl.Schema(), c, "journal")
	ev.Attrs["lsn"] = val.Int(int64(lsn))
	return ev
}

// MineChanges is Mine at change granularity: matching committed changes
// are handed to fn raw, without conversion to events, so callers that
// know the table's shape (e.g. queue-payload backfill) can decode row
// values directly instead of going through attribute maps. Changes to
// tables that no longer exist are still delivered — the WAL remembers
// them even if the schema registry does not. It is one pass of the
// WAL's cursor (wal.Replay), so the changes come in LSN order, the
// inserts of rows later updated or deleted included.
func (m *Miner) MineChanges(fromLSN uint64, f Filter, fn func(lsn uint64, c *storage.Change) error) (nextLSN uint64, err error) {
	log := m.db.WAL()
	if log == nil {
		return 0, ErrNotDurable
	}
	nextLSN = fromLSN
	err = log.Replay(fromLSN, func(r wal.Record) error {
		nextLSN = r.LSN + 1
		return eachChange(r, f, fn)
	})
	return nextLSN, err
}

// eachChange hands fn the changes of one commit record that f admits;
// DDL and foreign records carry none.
func eachChange(r wal.Record, f Filter, fn func(lsn uint64, c *storage.Change) error) error {
	changes, _, err := storage.DecodeCommitRecord(r)
	if err != nil {
		return fmt.Errorf("journal: lsn %d: %w", r.LSN, err)
	}
	for i := range changes {
		if c := &changes[i]; f.admits(c) {
			if err := fn(r.LSN, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tail is live capture: it hands fn the events of committed changes
// with LSN >= fromLSN that f admits, one batch per pass of
// storage.DB.Follow, until stop closes (it then returns nil). A slow fn
// falls behind by LSN and loses nothing. Tail returns the first error
// from reading the log or from fn, and ErrNotDurable on a volatile
// database, which has no log to follow.
func (m *Miner) Tail(fromLSN uint64, f Filter, stop <-chan struct{}, fn func([]*event.Event) error) error {
	if m.db.WAL() == nil {
		return ErrNotDurable
	}
	var evs []*event.Event
	collect := func(lsn uint64, c *storage.Change) error {
		if ev := m.event(lsn, c); ev != nil {
			evs = append(evs, ev)
		}
		return nil
	}
	return m.db.Follow(fromLSN, stop, func(recs []wal.Record) error {
		evs = evs[:0]
		for _, r := range recs {
			if err := eachChange(r, f, collect); err != nil {
				return err
			}
		}
		if len(evs) == 0 {
			return nil
		}
		return fn(evs)
	})
}

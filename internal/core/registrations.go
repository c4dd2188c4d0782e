package core

import (
	"fmt"
	"strings"

	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// The catalogue of durable registrations: one table decides which
// standing registrations outlive the process. A row is a registration's
// kind, its name and its spec as it arrived — a QSUB binding's filter, a
// PATTERN's JSON — so conditions are data in the database (§2.2.c).
// A row and the in-memory registration it stands for change together
// under Engine.regMu. Nothing is written until RestoreRegistrations has
// attached the catalogue: an in-memory engine, or a follower before its
// promotion, keeps its registrations in memory only.

const (
	registrationsTable = "wire_registrations"
	kindQSub           = "qsub"    // spec: the filter
	kindPattern        = "pattern" // spec: the JSON pattern spec

	// The two stores the catalogue replaced; RestoreRegistrations moves
	// their rows in.
	legacySubsTable     = "wire_subs"
	legacyPatternsTable = "wire_patterns"
)

// IsRegistrationTable reports whether a table holds registrations — the
// catalogue or a store it replaced — rather than data: its changes are
// bookkeeping, not database events.
func IsRegistrationTable(name string) bool {
	return name == registrationsTable || name == legacySubsTable || name == legacyPatternsTable
}

// RestoreRegistrations attaches the catalogue, creating it when missing
// and moving the rows of the stores it replaced in, then re-registers
// what it holds: queue bindings (reopening each queue with qcfg) before
// patterns, whose composite events those bindings may stage. From then
// on every QSUB binding and pattern registration writes its row. A
// durable leader calls it at start, a follower at its promotion.
func (e *Engine) RestoreRegistrations(qcfg queue.Config) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if _, ok := e.DB.Table(registrationsTable); !ok {
		schema, err := storage.NewSchema(registrationsTable, []storage.Column{
			{Name: "kind", Kind: val.KindString, NotNull: true},
			{Name: "name", Kind: val.KindString, NotNull: true},
			{Name: "spec", Kind: val.KindString, NotNull: true},
		}, "kind", "name")
		if err != nil {
			return err
		}
		if err := e.DB.CreateTable(schema); err != nil {
			return err
		}
	}
	if err := e.moveLegacyRegistrations(); err != nil {
		return err
	}
	cat, _ := e.DB.Table(registrationsTable)
	_, rows := cat.ScanRows()
	for _, kind := range [...]string{kindQSub, kindPattern} {
		for _, r := range rows {
			if k, _ := r[0].AsString(); k != kind {
				continue
			}
			name, _ := r[1].AsString()
			spec, _ := r[2].AsString()
			var err error
			if kind == kindQSub {
				_, err = e.bindQueue(name, spec, qcfg)
			} else if !e.hasPattern(name) {
				err = e.registerPattern(name, []byte(spec))
			}
			if err != nil {
				return fmt.Errorf("core: restoring %s %q: %w", kind, name, err)
			}
		}
	}
	e.catalogue = cat
	return nil
}

// moveLegacyRegistrations moves the rows of wire_subs (queue bindings)
// and wire_patterns into the catalogue, each row inserted and deleted in
// one transaction. A wire_subs row with no queue is a callback
// subscription, which cannot outlive its process: it is deleted, not
// moved. The emptied tables stay (storage has no DROP), so a second run
// finds nothing to move.
func (e *Engine) moveLegacyRegistrations() error {
	for _, legacy := range [...]struct {
		table, kind string
		name, spec  int // column positions
	}{
		{legacySubsTable, kindQSub, 3, 2}, // id, subscriber, filter, queue, priority
		{legacyPatternsTable, kindPattern, 0, 1},
	} {
		tbl, ok := e.DB.Table(legacy.table)
		if !ok {
			continue
		}
		ids, rows := tbl.ScanRows()
		for i, r := range rows {
			txn := e.DB.Begin()
			var err error
			if name, _ := r[legacy.name].AsString(); name != "" {
				err = txn.InsertRow(registrationsTable, storage.Row{val.String(legacy.kind), r[legacy.name], r[legacy.spec]})
			}
			if err == nil {
				err = txn.Delete(legacy.table, ids[i])
			}
			if err == nil {
				_, err = txn.Commit()
			}
			if err != nil {
				return fmt.Errorf("core: moving %s into %s: %w", legacy.table, registrationsTable, err)
			}
		}
	}
	return nil
}

// putRegistration writes a registration's catalogue row, replacing the
// spec of an existing one. Caller holds regMu.
func (e *Engine) putRegistration(kind, name, spec string) error {
	if e.catalogue == nil {
		return nil
	}
	if _, id, ok := e.catalogue.GetByPK(val.String(kind), val.String(name)); ok {
		return e.DB.UpdateRow(registrationsTable, id, map[string]val.Value{"spec": val.String(spec)})
	}
	_, err := e.DB.InsertRow(registrationsTable, storage.Row{val.String(kind), val.String(name), val.String(spec)})
	return err
}

// dropRegistration deletes a registration's catalogue row. Caller holds
// regMu.
func (e *Engine) dropRegistration(kind, name string) error {
	if e.catalogue == nil {
		return nil
	}
	if _, id, ok := e.catalogue.GetByPK(val.String(kind), val.String(name)); ok {
		return e.DB.DeleteRow(registrationsTable, id)
	}
	return nil
}

// BindQueue routes filter-matching events into the named staging queue,
// attaching to or creating it with qcfg: the durable subscription behind
// a QSUB. The binding belongs to the queue, not to a connection, so it
// and the events staged behind it outlive every consumer. A binding
// with the same filter is reused (reconnect, competing consumers); a
// new filter is compiled, written to the catalogue, and then replaces
// the old one atomically, so the binding is never absent mid-rebind.
// An error means nothing changed, in memory or in the catalogue; the
// queue comes back with it unless the queue itself could not be opened.
func (e *Engine) BindQueue(name, filter string, qcfg queue.Config) (*queue.Queue, error) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return e.bindQueue(name, filter, qcfg)
}

// bindQueue is BindQueue under regMu.
func (e *Engine) bindQueue(name, filter string, qcfg queue.Config) (*queue.Queue, error) {
	q, err := e.EnsureQueue(name, qcfg)
	if err != nil {
		return nil, err
	}
	id := "qsub." + name
	if old, bound := e.Broker.FilterOf(id); bound && old == filter {
		return q, nil
	}
	f, err := pubsub.Compile(strings.Clone(filter)) // the rule keeps a copy of its own
	if err != nil {
		return q, err
	}
	if err := e.putRegistration(kindQSub, name, filter); err != nil {
		return q, err
	}
	// This cannot fail now: the filter compiles, and regMu keeps every
	// other binder of the id out.
	return q, e.Broker.Bind(id, f, q)
}

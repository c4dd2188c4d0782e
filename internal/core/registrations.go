package core

import (
	"errors"
	"fmt"
	"strings"

	"eventdb/internal/cep"
	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/wiredb"
)

// The registry of engine-scoped registrations: triggers, patterns and
// watches by Register, QSUB bindings by BindQueue. The catalogue keeps
// each as one row of kind, name and spec as it arrived, so conditions
// are data in the database (§2.2.c), and a row changes with its
// registration under Engine.regMu. Until RestoreRegistrations attaches
// the catalogue (an in-memory engine, a follower before its promotion)
// registrations live in memory only.

// The kinds of registration, as the catalogue names them.
const (
	KindTrig    = "trig"    // spec: the TRIG JSON (wiredb.ParseTrigger)
	KindPattern = "pattern" // spec: the PATTERN JSON (cep.ParseSpec)
	KindWatch   = "watch"   // spec: the WATCH JSON (wiredb.WatchSpec)
	kindQSub    = "qsub"    // spec: the filter (BindQueue)
)

const (
	registrationsTable = "wire_registrations"

	// The two stores the catalogue replaced; RestoreRegistrations moves
	// their rows in.
	legacySubsTable     = "wire_subs"
	legacyPatternsTable = "wire_patterns"
)

// Register refuses a name its kind already holds with ErrExists, and
// Unregister one it does not hold with ErrNotFound, in the kind's words.
var (
	ErrExists   = errors.New("core: registration exists")
	ErrNotFound = errors.New("core: no such registration")
)

// regError is an error that reads as text and matches is.
type regError struct {
	is   error
	text string
}

func (e *regError) Error() string { return e.text }
func (e *regError) Unwrap() error { return e.is }

// regKind is how one kind registers and drops. prepare decodes and
// validates a spec and returns its install, which can fail only where a
// caller outside regMu took the name; exists and missing are the texts
// of ErrExists and ErrNotFound.
type regKind struct {
	prepare         func(e *Engine, name string, spec []byte) (install func() error, err error)
	has             func(e *Engine, name string) bool
	drop            func(e *Engine, name string)
	exists, missing string
}

var regKinds = map[string]*regKind{
	KindTrig: {
		prepare: (*Engine).prepareTrig,
		has:     func(e *Engine, name string) bool { _, ok := e.Triggers.Lookup(name); return ok },
		drop:    func(e *Engine, name string) { _ = e.Triggers.Drop(name) }, // has found it
		exists:  "trigger: already registered: %q",
		missing: "trigger: no trigger %q",
	},
	KindPattern: {
		prepare: (*Engine).preparePattern,
		has:     (*Engine).hasPattern,
		drop:    (*Engine).dropPattern,
		exists:  "core: pattern already registered: %q",
		missing: "core: no such pattern: %q",
	},
	KindWatch: {
		prepare: (*Engine).prepareWatch,
		has:     func(e *Engine, name string) bool { return e.watches[name] != nil },
		drop:    (*Engine).stopWatch,
		exists:  "core: watch already registered: %q",
		missing: "core: no such watch: %q",
	},
}

// Register decodes a spec by its kind, writes its catalogue row and
// installs it; an error leaves neither. The name is copied.
func (e *Engine) Register(kind, name string, spec []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if name == "" {
		return errors.New("core: registration needs a name")
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return e.register(kind, name, spec)
}

// register is Register under regMu. The row is written before the
// install takes any lock of its own: its commit can deliver
// trigger-captured events inline, and those reach the pattern automaton.
func (e *Engine) register(kind, name string, spec []byte) error {
	k, ok := regKinds[kind]
	if !ok {
		return fmt.Errorf("core: no registration kind %q", kind)
	}
	name = strings.Clone(name) // a wire line's or a catalogue row's
	install, err := k.prepare(e, name, spec)
	if err != nil {
		return err
	}
	if k.has(e, name) {
		return &regError{ErrExists, fmt.Sprintf(k.exists, name)}
	}
	if err := e.putRegistration(kind, name, string(spec)); err != nil {
		return err
	}
	if err := install(); err != nil {
		_ = e.dropRegistration(kind, name) // best effort; the install's error is the one to report
		return err
	}
	return nil
}

// Unregister drops a registration and its catalogue row; a watch's poll
// in flight finishes first.
func (e *Engine) Unregister(kind, name string) error {
	k, ok := regKinds[kind]
	if !ok {
		return fmt.Errorf("core: no registration kind %q", kind)
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if !k.has(e, name) {
		return &regError{ErrNotFound, fmt.Sprintf(k.missing, name)}
	}
	if err := e.dropRegistration(kind, name); err != nil {
		return err
	}
	k.drop(e, name)
	return nil
}

func (e *Engine) prepareTrig(name string, spec []byte) (func() error, error) {
	def, err := wiredb.ParseTrigger(name, spec)
	if err != nil {
		return nil, err
	}
	if err := e.dataTable(def.Table); err != nil {
		return nil, err
	}
	tr, err := e.Triggers.Compile(def)
	if err != nil {
		return nil, err
	}
	return func() error { return e.Triggers.Install(tr) }, nil
}

func (e *Engine) preparePattern(name string, spec []byte) (func() error, error) {
	p, err := cep.ParseSpec(name, spec)
	if err != nil {
		return nil, err
	}
	return func() error { return e.addPattern(p) }, nil
}

// prepareWatch polls at Config.WatchInterval unless the spec sets
// interval_ms; a catalogue row restores even where a new spec is
// refused for one no Duration holds, so the engine still starts.
func (e *Engine) prepareWatch(name string, spec []byte) (func() error, error) {
	parse := wiredb.ParseWatchSpec
	if e.restoring {
		parse = wiredb.DecodeWatchSpec
	}
	s, err := parse(spec)
	if err != nil {
		return nil, err
	}
	if err := e.dataTable(s.Query.Table); err != nil {
		return nil, err
	}
	q, err := s.Query.Build()
	if err != nil {
		return nil, err
	}
	interval := e.watchInterval
	if d := s.Interval(); d > 0 {
		interval = d
	}
	return func() error { e.startWatch(name, q, s.Key, interval); return nil }, nil
}

// dataTable refuses a TRIG or WATCH target that is missing or not data:
// a trigger on a catalogue or queue table could veto its own drop.
func (e *Engine) dataTable(name string) error {
	if _, ok := e.DB.Table(name); !ok || IsRegistrationTable(name) || queue.IsQueueTable(name) {
		return &regError{wiredb.ErrNoTable, fmt.Sprintf("no table %q", name)}
	}
	return nil
}

// IsRegistrationTable reports whether a table holds registrations — the
// catalogue or a store it replaced — rather than data: its changes are
// bookkeeping, not database events.
func IsRegistrationTable(name string) bool {
	return name == registrationsTable || name == legacySubsTable || name == legacyPatternsTable
}

// RestoreRegistrations attaches the catalogue, creating it when missing
// and moving the rows of the stores it replaced in, then re-registers
// what it holds over the tables the WAL brought back (each queue
// reopened with qcfg; a name already registered is left as it is). From
// then on every registration writes its row. A durable leader calls it
// at start, a follower at its promotion.
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
	e.restoring = true
	defer func() { e.restoring = false }()
	// Triggers first, so every commit after them is captured; then QSUB
	// bindings, so they stage what a pattern completes or a watch's
	// baseline poll (on its own goroutine) emits from the start.
	for _, kind := range [...]string{KindTrig, kindQSub, KindPattern, KindWatch} {
		for _, r := range rows {
			if k, _ := r[0].AsString(); k != kind {
				continue
			}
			name, _ := r[1].AsString()
			spec, _ := r[2].AsString()
			var err error
			if kind == kindQSub {
				_, err = e.bindQueue(name, spec, qcfg)
			} else if !regKinds[kind].has(e, name) {
				err = e.register(kind, name, []byte(spec))
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
		{legacyPatternsTable, KindPattern, 0, 1},
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

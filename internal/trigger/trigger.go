// Package trigger implements database triggers, the first of the paper's
// three event-capture mechanisms (§2.2.a.i "capturing events using
// database triggers").
//
// A trigger watches one table for INSERT/UPDATE/DELETE, optionally
// guarded by a WHEN predicate over the old and new row images
// ("old.col", "new.col", or bare "col" resolving to the new image when
// present). BEFORE triggers run inside the commit path and may veto or
// rewrite the change; AFTER triggers run post-commit and typically emit
// events into a staging area.
package trigger

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Timing says when a trigger fires relative to the commit.
type Timing int

// Trigger timings.
const (
	Before Timing = iota
	After
)

// String returns the timing name.
func (t Timing) String() string {
	if t == Before {
		return "BEFORE"
	}
	return "AFTER"
}

// Context is passed to trigger actions.
type Context struct {
	Trigger *Trigger
	Change  *storage.Change
	Schema  *storage.Schema
	// Emit forwards an event to the manager's sink (usually a staging
	// queue). Valid in BEFORE and AFTER actions.
	Emit func(*event.Event)
}

// Action is the user function run when a trigger fires. In BEFORE
// triggers a returned error vetoes the whole transaction and the action
// may rewrite Change.New; in AFTER triggers errors are reported to the
// manager's error handler.
type Action func(*Context) error

// Def declares a trigger.
type Def struct {
	Name   string
	Table  string
	Timing Timing
	// Ops filters which change kinds fire the trigger; empty means all.
	Ops []storage.ChangeKind
	// When is an optional predicate source; see package docs for the
	// old./new. naming convention.
	When string
	// Action runs when the trigger fires. If nil, the default action
	// emits a change event (see EmitChangeEvent).
	Action Action
}

// Trigger is a registered trigger.
type Trigger struct {
	Def
	when   *expr.Predicate
	ops    map[storage.ChangeKind]bool
	remove func() // detaches a BEFORE trigger's hook
}

// Manager registers triggers against a storage.DB and routes emitted
// events to a sink.
type Manager struct {
	db   *storage.DB
	sink func(*event.Event)

	mu       sync.RWMutex
	triggers map[string]*Trigger
	// after holds each table's AFTER triggers. It is rebuilt whole on
	// Install and Drop and never changed in place, so a commit reads its
	// changed tables' slices without a lock and copies nothing.
	after atomic.Pointer[map[string][]*Trigger]

	removeCommitHook func()
}

// NewManager creates a trigger manager. sink receives events emitted by
// trigger actions; it may be nil if no trigger emits.
func NewManager(db *storage.DB, sink func(*event.Event)) *Manager {
	m := &Manager{
		db:       db,
		sink:     sink,
		triggers: make(map[string]*Trigger),
	}
	m.fileAfter()
	m.removeCommitHook = db.OnCommit(m.afterCommit)
	return m
}

// Close detaches the manager from the database.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tr := range m.triggers {
		if tr.remove != nil {
			tr.remove() // a no-op the second time
		}
	}
	if m.removeCommitHook != nil {
		m.removeCommitHook()
		m.removeCommitHook = nil
	}
}

// Register installs a trigger: Compile, then Install.
func (m *Manager) Register(def Def) (*Trigger, error) {
	tr, err := m.Compile(def)
	if err != nil {
		return nil, err
	}
	return tr, m.Install(tr)
}

// Compile validates a definition against the database and compiles its
// WHEN guard, installing nothing.
func (m *Manager) Compile(def Def) (*Trigger, error) {
	if def.Name == "" || def.Table == "" {
		return nil, errors.New("trigger: name and table are required")
	}
	if _, ok := m.db.Table(def.Table); !ok {
		return nil, fmt.Errorf("trigger: no table %q", def.Table)
	}
	tr := &Trigger{Def: def}
	if def.When != "" {
		p, err := expr.Compile(def.When)
		if err != nil {
			return nil, fmt.Errorf("trigger %q: %w", def.Name, err)
		}
		tr.when = p.Standing()
	}
	if len(def.Ops) > 0 {
		tr.ops = make(map[storage.ChangeKind]bool, len(def.Ops))
		for _, op := range def.Ops {
			tr.ops[op] = true
		}
	}
	if tr.Action == nil {
		tr.Action = EmitChangeEvent
	}
	return tr, nil
}

// Install adds a compiled trigger under its name, which must be free.
func (m *Manager) Install(tr *Trigger) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.triggers[tr.Name]; dup {
		return fmt.Errorf("trigger: already registered: %q", tr.Name)
	}
	m.triggers[tr.Name] = tr
	if tr.Timing == Before {
		tr.remove = m.db.OnBefore(tr.Table, func(c *storage.Change) error {
			return m.fireBefore(tr, c)
		})
	}
	m.fileAfter()
	return nil
}

// Drop removes a trigger by name.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr, ok := m.triggers[name]
	if !ok {
		return fmt.Errorf("trigger: no trigger %q", name)
	}
	delete(m.triggers, name)
	if tr.remove != nil {
		tr.remove()
	}
	m.fileAfter()
	return nil
}

// fileAfter rebuilds the per-table AFTER trigger map. Caller holds mu.
func (m *Manager) fileAfter() {
	after := make(map[string][]*Trigger)
	for _, tr := range m.triggers {
		if tr.Timing == After {
			after[tr.Table] = append(after[tr.Table], tr)
		}
	}
	m.after.Store(&after)
}

// Lookup returns the trigger registered under name.
func (m *Manager) Lookup(name string) (*Trigger, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	tr, ok := m.triggers[name]
	return tr, ok
}

func (m *Manager) fireBefore(tr *Trigger, c *storage.Change) error {
	if tr.ops != nil && !tr.ops[c.Kind] {
		return nil
	}
	tbl, ok := m.db.Table(c.Table)
	if !ok {
		return nil
	}
	schema := tbl.Schema()
	if tr.when != nil {
		match, err := tr.when.Match(changeResolver{schema: schema, change: c})
		if err != nil {
			return fmt.Errorf("trigger %q WHEN: %w", tr.Name, err)
		}
		if !match {
			return nil
		}
	}
	return tr.Action(&Context{Trigger: tr, Change: c, Schema: schema, Emit: m.emit})
}

func (m *Manager) afterCommit(ci *storage.CommitInfo) {
	after := *m.after.Load()
	for i := range ci.Changes {
		c := &ci.Changes[i]
		fired := after[c.Table]
		if len(fired) == 0 {
			continue
		}
		tbl, ok := m.db.Table(c.Table)
		if !ok {
			continue
		}
		schema := tbl.Schema()
		for _, tr := range fired {
			if tr.ops != nil && !tr.ops[c.Kind] {
				continue
			}
			if tr.when != nil {
				// An AFTER trigger cannot veto a committed transaction,
				// and nothing reads its errors: a WHEN that fails to
				// evaluate skips the action, and a failed action is
				// dropped.
				if match, err := tr.when.Match(changeResolver{schema: schema, change: c}); err != nil || !match {
					continue
				}
			}
			_ = tr.Action(&Context{Trigger: tr, Change: c, Schema: schema, Emit: m.emit})
		}
	}
}

func (m *Manager) emit(ev *event.Event) {
	if m.sink != nil {
		m.sink(ev)
	}
}

// changeResolver resolves "new.col", "old.col" and bare "col" (new
// image first, falling back to old) against a change.
type changeResolver struct {
	schema *storage.Schema
	change *storage.Change
}

func (r changeResolver) Get(name string) (val.Value, bool) {
	switch {
	case strings.HasPrefix(name, "new."):
		if r.change.New == nil {
			return val.Null, true // DELETE: new image is all-null
		}
		return storage.RowResolver{Schema: r.schema, Row: r.change.New}.Get(name[4:])
	case strings.HasPrefix(name, "old."):
		if r.change.Old == nil {
			return val.Null, true // INSERT: old image is all-null
		}
		return storage.RowResolver{Schema: r.schema, Row: r.change.Old}.Get(name[4:])
	case name == "$op":
		return val.String(r.change.Kind.String()), true
	}
	if r.change.New != nil {
		return storage.RowResolver{Schema: r.schema, Row: r.change.New}.Get(name)
	}
	return storage.RowResolver{Schema: r.schema, Row: r.change.Old}.Get(name)
}

// EmitChangeEvent is the default AFTER-trigger action: it converts the
// change to an event of type "db.<table>.<op>" with new_*/old_* column
// attributes and emits it.
func EmitChangeEvent(ctx *Context) error {
	ctx.Emit(ChangeToEvent(ctx.Schema, ctx.Change, "db"))
	return nil
}

// ChangeToEvent builds the canonical change event used by both the
// trigger and journal capture paths (so downstream evaluation is
// agnostic to how an event was captured).
func ChangeToEvent(schema *storage.Schema, c *storage.Change, prefix string) *event.Event {
	attrs := make(map[string]val.Value, 2*len(schema.Columns)+3)
	attrs["table"] = val.String(c.Table)
	attrs["op"] = val.String(c.Kind.String())
	attrs["rowid"] = val.Int(int64(c.ID))
	for i, col := range schema.Columns {
		if c.New != nil {
			attrs["new_"+col.Name] = c.New[i]
		}
		if c.Old != nil {
			attrs["old_"+col.Name] = c.Old[i]
		}
	}
	ev := &event.Event{
		ID:     event.NextID(),
		Type:   prefix + "." + c.Table + "." + c.Kind.String(),
		Source: "capture/" + prefix,
		Attrs:  attrs,
	}
	ev.Time = eventNow()
	return ev
}

// Package audit implements the auditing/tracking operational
// characteristic the paper requires at every stage (§2.2.b/c/d
// "security, auditing, tracking"): an append-only audit trail stored as
// a database table, and message lineage linking derived events to their
// causes.
package audit

import (
	"fmt"
	"sync/atomic"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Entry is one audit record.
type Entry struct {
	Seq       int64
	Time      time.Time
	Principal string
	Action    string
	Resource  string
	Detail    string
}

// Trail is an append-only audit log backed by a storage table (and so
// WAL-recoverable and queryable like any other data).
type Trail struct {
	db    *storage.DB
	table string
	seq   atomic.Int64
}

// TrailSchema returns the audit table schema.
func TrailSchema(table string) (*storage.Schema, error) {
	return storage.NewSchema(table, []storage.Column{
		{Name: "seq", Kind: val.KindInt, NotNull: true},
		{Name: "ts", Kind: val.KindTime, NotNull: true},
		{Name: "principal", Kind: val.KindString, NotNull: true},
		{Name: "action", Kind: val.KindString, NotNull: true},
		{Name: "resource", Kind: val.KindString, NotNull: true},
		{Name: "detail", Kind: val.KindString, Default: val.String("")},
	}, "seq")
}

// NewTrail creates (or reattaches to) an audit table.
func NewTrail(db *storage.DB, table string) (*Trail, error) {
	t := &Trail{db: db, table: table}
	tbl, ok := db.Table(table)
	if !ok {
		schema, err := TrailSchema(table)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(schema); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Resume the sequence after recovery.
	var maxSeq int64
	tbl.Scan(func(_ storage.RowID, r storage.Row) bool {
		if s, ok := r[0].AsInt(); ok && s > maxSeq {
			maxSeq = s
		}
		return true
	})
	t.seq.Store(maxSeq)
	return t, nil
}

// Record appends one audit entry.
func (t *Trail) Record(principal, action, resource, detail string) error {
	seq := t.seq.Add(1)
	_, err := t.db.Insert(t.table, map[string]val.Value{
		"seq":       val.Int(seq),
		"ts":        val.Time(time.Now().UTC()),
		"principal": val.String(principal),
		"action":    val.String(action),
		"resource":  val.String(resource),
		"detail":    val.String(detail),
	})
	return err
}

// Entries returns audit records filtered by principal and/or resource
// (empty = any), ordered by sequence.
func (t *Trail) Entries(principal, resource string) ([]Entry, error) {
	tbl, ok := t.db.Table(t.table)
	if !ok {
		return nil, fmt.Errorf("audit: no table %q", t.table)
	}
	var out []Entry
	tbl.Scan(func(_ storage.RowID, r storage.Row) bool {
		p, _ := r[2].AsString()
		res, _ := r[4].AsString()
		if principal != "" && p != principal {
			return true
		}
		if resource != "" && res != resource {
			return true
		}
		seq, _ := r[0].AsInt()
		ts, _ := r[1].AsTime()
		act, _ := r[3].AsString()
		det, _ := r[5].AsString()
		out = append(out, Entry{Seq: seq, Time: ts, Principal: p, Action: act, Resource: res, Detail: det})
		return true
	})
	// Scan order is map order; sort by seq.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// Lineage tracks which events derived from which — message tracking
// across pipeline stages.
type Lineage struct {
	db    *storage.DB
	table string
}

// LineageSchema returns the lineage table schema.
func LineageSchema(table string) (*storage.Schema, error) {
	return storage.NewSchema(table, []storage.Column{
		{Name: "parent", Kind: val.KindInt, NotNull: true},
		{Name: "child", Kind: val.KindInt, NotNull: true},
		{Name: "stage", Kind: val.KindString, NotNull: true},
	})
}

// NewLineage creates (or reattaches to) a lineage table.
func NewLineage(db *storage.DB, table string) (*Lineage, error) {
	if _, ok := db.Table(table); !ok {
		schema, err := LineageSchema(table)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(schema); err != nil {
			return nil, err
		}
	}
	return &Lineage{db: db, table: table}, nil
}

// Link records that child derived from parent at the named stage.
func (l *Lineage) Link(parent, child event.ID, stage string) error {
	_, err := l.db.Insert(l.table, map[string]val.Value{
		"parent": val.Int(int64(parent)),
		"child":  val.Int(int64(child)),
		"stage":  val.String(stage),
	})
	return err
}

// Ancestors returns the transitive parents of an event, nearest first.
func (l *Lineage) Ancestors(id event.ID) ([]event.ID, error) {
	tbl, ok := l.db.Table(l.table)
	if !ok {
		return nil, fmt.Errorf("audit: no table %q", l.table)
	}
	parentOf := map[int64][]int64{}
	tbl.Scan(func(_ storage.RowID, r storage.Row) bool {
		p, _ := r[0].AsInt()
		c, _ := r[1].AsInt()
		parentOf[c] = append(parentOf[c], p)
		return true
	})
	var out []event.ID
	seen := map[int64]bool{}
	frontier := []int64{int64(id)}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, p := range parentOf[next] {
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, event.ID(p))
			frontier = append(frontier, p)
		}
	}
	return out, nil
}

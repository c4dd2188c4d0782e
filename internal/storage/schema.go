// Package storage implements the embedded database engine at the base of
// eventdb: schemaful tables with typed rows, primary keys, atomic
// multi-table transactions, a write-ahead log for crash recovery, and
// commit hooks that feed the capture layer (triggers and journal
// mining, paper §2.2.a).
//
// Concurrency model: commits are serialized by a single commit mutex
// (single-writer); readers take per-table read locks and never block
// writers for long because rows are immutable once stored (updates
// replace whole rows). This is the simplest model that makes every
// claim in the tutorial checkable; it is documented honestly rather
// than pretending to be a full MVCC engine.
package storage

import (
	"fmt"

	"eventdb/internal/val"
)

// Column describes one table column.
type Column struct {
	Name    string
	Kind    val.Kind
	NotNull bool
	Default val.Value // used when an insert omits the column
}

// Schema describes a table: its columns and optional primary key.
type Schema struct {
	Name    string
	Columns []Column
	// PrimaryKey lists column names forming the unique primary key.
	// Empty means rows are addressed by engine row ID only.
	PrimaryKey []string

	byName map[string]int
	pkCols []int
}

// NewSchema validates and prepares a schema definition.
func NewSchema(name string, cols []Column, primaryKey ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %q has no columns", name)
	}
	s := &Schema{Name: name, Columns: cols, PrimaryKey: primaryKey,
		byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %q: empty column name", name)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	for _, pk := range primaryKey {
		i, ok := s.byName[pk]
		if !ok {
			return nil, fmt.Errorf("storage: table %q: primary key column %q not found", name, pk)
		}
		s.pkCols = append(s.pkCols, i)
	}
	return s, nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// HasPrimaryKey reports whether a primary key is declared.
func (s *Schema) HasPrimaryKey() bool { return len(s.pkCols) > 0 }

// Row is one table row; values are positional per Schema.Columns. A
// table stores rows packed and hands out fresh copies, so a Row never
// changes under its holder: an update replaces the stored row wholesale.
type Row []val.Value

// RowID addresses a row within its table.
type RowID uint64

// validateRow checks kinds and NOT NULL constraints, returning a
// normalized copy (numeric widening int→float for float columns).
func (s *Schema) validateRow(r Row) (Row, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("storage: table %q: row has %d values, want %d", s.Name, len(r), len(s.Columns))
	}
	out := make(Row, len(r))
	copy(out, r)
	for i, c := range s.Columns {
		v := out[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("storage: table %q: column %q is NOT NULL", s.Name, c.Name)
			}
			continue
		}
		if v.Kind() == c.Kind {
			continue
		}
		// Numeric widening: int accepted into float columns.
		if c.Kind == val.KindFloat && v.Kind() == val.KindInt {
			f, _ := v.AsFloat()
			out[i] = val.Float(f)
			continue
		}
		return nil, fmt.Errorf("storage: table %q: column %q has kind %s, want %s",
			s.Name, c.Name, v.Kind(), c.Kind)
	}
	return out, nil
}

// RowFromMap builds a positional row from named values, applying column
// defaults for omitted names and rejecting unknown names.
func (s *Schema) RowFromMap(m map[string]val.Value) (Row, error) {
	r := make(Row, len(s.Columns))
	for i, c := range s.Columns {
		r[i] = c.Default
	}
	for k, v := range m {
		i, ok := s.byName[k]
		if !ok {
			return nil, fmt.Errorf("storage: table %q: unknown column %q", s.Name, k)
		}
		r[i] = v
	}
	return r, nil
}

// pkKey computes the encoded primary-key bytes for a row. A key of up to
// 64 bytes (three numeric columns) is built on the stack, so the string
// is the one allocation.
func (s *Schema) pkKey(r Row) string {
	var arr [64]byte
	buf := arr[:0]
	for _, ci := range s.pkCols {
		buf = val.AppendKey(buf, r[ci])
	}
	return string(buf)
}

// RowResolver adapts a row to expr.Resolver, optionally with a name
// prefix (e.g. "new." for trigger predicates).
type RowResolver struct {
	Schema *Schema
	Row    Row
	Prefix string
}

// Get implements expr.Resolver.
func (rr RowResolver) Get(name string) (val.Value, bool) {
	if rr.Prefix != "" {
		if len(name) <= len(rr.Prefix) || name[:len(rr.Prefix)] != rr.Prefix {
			return val.Null, false
		}
		name = name[len(rr.Prefix):]
	}
	i := rr.Schema.ColIndex(name)
	if i < 0 || rr.Row == nil {
		return val.Null, false
	}
	return rr.Row[i], true
}

// Package wiredb is the JSON interchange layer for the database verbs
// of the wire protocol (internal/server's TABLE, INSERT, UPDATE,
// DELETE, SELECT, TRIG and WATCH commands): specs for schemas, one-shot
// queries, triggers and watched queries, plus the schema-aware value
// coercion that turns JSON scalars into typed column values and query
// results back into JSON.
//
// The paper's §2.2.a claim is that events are captured from database
// state — by triggers, by mining the journal, and by repeatedly
// evaluated queries. This package is what lets a foreign system reach
// that state over the wire: it declares tables, mutates rows so
// triggers fire, and registers the watched queries whose result-set
// diffs become events, all as single-line JSON payloads.
package wiredb

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/query"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
)

// Classification sentinels, so the wire layer can map failures to its
// stable error codes without string matching.
var (
	// ErrSpec wraps semantically invalid specs and values: unknown
	// columns, uncompilable predicates, bad coercions.
	ErrSpec = errors.New("wiredb: invalid spec")
	// ErrNoTable wraps references to tables that do not exist.
	ErrNoTable = errors.New("wiredb: no such table")
)

// ColumnSpec declares one column of a TABLE command.
type ColumnSpec struct {
	Name string `json:"name"`
	// Kind is a val kind name: bool, int, float, string, time, bytes.
	Kind    string `json:"kind"`
	NotNull bool   `json:"notnull,omitempty"`
	// Default is the value used when an insert omits the column (a JSON
	// scalar, coerced to Kind).
	Default any `json:"default,omitempty"`
}

// TableSpec is the JSON payload of the TABLE command.
type TableSpec struct {
	Name    string       `json:"name"`
	Columns []ColumnSpec `json:"columns"`
	// Key lists the primary-key column names (optional).
	Key []string `json:"key,omitempty"`
}

// ParseTableSpec decodes and validates a TABLE payload into a schema.
func ParseTableSpec(data []byte) (*storage.Schema, error) {
	var spec TableSpec
	if err := decodeStrict(data, &spec); err != nil {
		return nil, fmt.Errorf("wiredb: table spec: %w", err)
	}
	cols := make([]storage.Column, len(spec.Columns))
	for i, cs := range spec.Columns {
		kind, err := val.ParseKind(cs.Kind)
		if err != nil {
			return nil, fmt.Errorf("wiredb: column %q: %w", cs.Name, err)
		}
		def := val.Null
		if cs.Default != nil {
			def, err = coerceAny(kind, cs.Default)
			if err != nil {
				return nil, fmt.Errorf("wiredb: column %q default: %w", cs.Name, err)
			}
		}
		cols[i] = storage.Column{Name: cs.Name, Kind: kind, NotNull: cs.NotNull, Default: def}
	}
	return storage.NewSchema(spec.Name, cols, spec.Key...)
}

// AggSpec is one aggregate output of a QuerySpec.
type AggSpec struct {
	Alias string `json:"alias"`
	// Kind is an aggregate name: count, sum, avg, min, max.
	Kind string `json:"kind"`
	// Col is the aggregated column; empty for count.
	Col string `json:"col,omitempty"`
}

// OrderSpec is one sort key of a QuerySpec.
type OrderSpec struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// JoinSpec is the inner equi-join clause of a QuerySpec.
type JoinSpec struct {
	Table string `json:"table"`
	Left  string `json:"left"`
	Right string `json:"right"`
}

// QuerySpec is the JSON payload of the SELECT command and the query
// half of a WATCH spec. It mirrors the query builder field for field.
type QuerySpec struct {
	Table  string      `json:"table"`
	Where  string      `json:"where,omitempty"`
	Select []string    `json:"select,omitempty"`
	Group  []string    `json:"group,omitempty"`
	Aggs   []AggSpec   `json:"aggs,omitempty"`
	Order  []OrderSpec `json:"order,omitempty"`
	// Limit bounds the result; nil means unlimited (0 means zero rows).
	Limit  *int      `json:"limit,omitempty"`
	Offset int       `json:"offset,omitempty"`
	Join   *JoinSpec `json:"join,omitempty"`
}

// ParseQuerySpec decodes a SELECT payload.
func ParseQuerySpec(data []byte) (QuerySpec, error) {
	var spec QuerySpec
	if err := decodeStrict(data, &spec); err != nil {
		return QuerySpec{}, fmt.Errorf("wiredb: query spec: %w", err)
	}
	return spec, nil
}

// Build assembles the executable query. Expression errors still surface
// at Run (the builder defers them), but structural problems — unknown
// aggregate kinds, a missing table name — fail here.
func (s QuerySpec) Build() (*query.Query, error) {
	if s.Table == "" {
		return nil, errors.New("wiredb: query spec needs a table")
	}
	q := query.New(s.Table)
	if s.Where != "" {
		q.Where(s.Where)
	}
	if len(s.Select) > 0 {
		q.Select(s.Select...)
	}
	if len(s.Group) > 0 {
		q.GroupBy(s.Group...)
	}
	for _, a := range s.Aggs {
		kind, ok := query.ParseAggKind(a.Kind)
		if !ok {
			return nil, fmt.Errorf("wiredb: unknown aggregate kind %q", a.Kind)
		}
		alias := a.Alias
		if alias == "" {
			alias = a.Kind
		}
		q.Agg(alias, kind, a.Col)
	}
	for _, o := range s.Order {
		dir := query.Asc
		if o.Desc {
			dir = query.Desc
		}
		q.OrderBy(o.Col, dir)
	}
	if s.Limit != nil {
		q.Limit(*s.Limit)
	}
	if s.Offset > 0 {
		q.Offset(s.Offset)
	}
	if s.Join != nil {
		q.Join(s.Join.Table, s.Join.Left, s.Join.Right)
	}
	return q, nil
}

// TriggerSpec is the JSON payload of the TRIG command.
type TriggerSpec struct {
	Table string `json:"table"`
	// Timing is "before" or "after" (the default).
	Timing string `json:"timing,omitempty"`
	// Ops filters which change kinds fire the trigger (insert, update,
	// delete); empty means all.
	Ops []string `json:"ops,omitempty"`
	// When is an optional guard predicate over old./new. row images.
	When string `json:"when,omitempty"`
	// Veto, valid only on BEFORE triggers, aborts the transaction with
	// this message whenever the trigger fires — the wire form of a
	// guard trigger. Without Veto the trigger emits the canonical
	// "db.<table>.<op>" change event into the engine's ingest path.
	Veto string `json:"veto,omitempty"`
}

// ParseTrigger decodes a TRIG payload into the named trigger's
// definition.
func ParseTrigger(name string, data []byte) (trigger.Def, error) {
	var spec TriggerSpec
	if err := decodeStrict(data, &spec); err != nil {
		return trigger.Def{}, fmt.Errorf("wiredb: trigger spec: %w", err)
	}
	if spec.Table == "" {
		return trigger.Def{}, errors.New("wiredb: trigger spec needs a table")
	}
	return spec.Def(name)
}

// Def converts the spec into a registrable trigger definition.
func (s TriggerSpec) Def(name string) (trigger.Def, error) {
	def := trigger.Def{Name: name, Table: s.Table, When: s.When}
	switch s.Timing {
	case "", "after":
		def.Timing = trigger.After
	case "before":
		def.Timing = trigger.Before
	default:
		return trigger.Def{}, fmt.Errorf("wiredb: trigger timing %q (want \"before\" or \"after\")", s.Timing)
	}
	for _, op := range s.Ops {
		kind, ok := changeKindByName(op)
		if !ok {
			return trigger.Def{}, fmt.Errorf("wiredb: unknown trigger op %q", op)
		}
		def.Ops = append(def.Ops, kind)
	}
	if s.Veto != "" {
		if def.Timing != trigger.Before {
			return trigger.Def{}, errors.New("wiredb: veto requires a before trigger")
		}
		msg := s.Veto
		def.Action = func(*trigger.Context) error { return errors.New(msg) }
	}
	return def, nil
}

func changeKindByName(name string) (storage.ChangeKind, bool) {
	switch name {
	case "insert":
		return storage.Insert, true
	case "update":
		return storage.Update, true
	case "delete":
		return storage.Delete, true
	}
	return 0, false
}

// WatchSpec is the JSON payload of the WATCH command: a query polled on
// a schedule, whose result-set diffs are ingested as
// "query.<name>.<added|removed|changed>" events.
type WatchSpec struct {
	Query QuerySpec `json:"query"`
	// Key lists result columns that uniquely identify a logical row;
	// the differ keys diffs on them.
	Key []string `json:"key"`
	// IntervalMS overrides the engine's default (its WatchInterval).
	IntervalMS int `json:"interval_ms,omitempty"`
}

// ParseWatchSpec decodes and validates a new WATCH payload: unlike
// DecodeWatchSpec it refuses an interval_ms no Duration holds.
func ParseWatchSpec(data []byte) (WatchSpec, error) {
	spec, err := DecodeWatchSpec(data)
	if err == nil && spec.IntervalMS > 0 && spec.Interval() == 0 {
		return WatchSpec{}, errors.New("wiredb: watch interval_ms does not fit a duration")
	}
	return spec, err
}

// DecodeWatchSpec decodes and validates a stored WATCH payload, whose
// interval_ms may be one written before ParseWatchSpec bounded it.
func DecodeWatchSpec(data []byte) (WatchSpec, error) {
	var spec WatchSpec
	if err := decodeStrict(data, &spec); err != nil {
		return WatchSpec{}, fmt.Errorf("wiredb: watch spec: %w", err)
	}
	if len(spec.Key) == 0 {
		// Without key columns every result row would collapse onto one
		// diff key and updates would shadow each other.
		return WatchSpec{}, errors.New("wiredb: watch spec needs key columns")
	}
	if spec.Query.Table == "" {
		return WatchSpec{}, errors.New("wiredb: watch spec needs a query table")
	}
	if spec.IntervalMS < 0 {
		return WatchSpec{}, errors.New("wiredb: watch interval must be non-negative")
	}
	return spec, nil
}

// Interval is interval_ms as a Duration, or 0 for the engine's default:
// unset, or more than a Duration holds.
func (s WatchSpec) Interval() time.Duration {
	if d := time.Duration(s.IntervalMS) * time.Millisecond; d > 0 && d/time.Millisecond == time.Duration(s.IntervalMS) {
		return d
	}
	return 0
}

// --- values -------------------------------------------------------------

// ToValue converts a decoded JSON scalar to a value, folding integral
// floats to ints the way the event codec does. It also passes through
// already-typed Go values, so the client API accepts natural literals.
func ToValue(raw any) (val.Value, error) {
	if f, ok := raw.(float64); ok {
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return val.Int(int64(f)), nil
		}
		return val.Float(f), nil
	}
	return val.FromAny(raw)
}

// coerce converts a JSON scalar's value toward a column kind: RFC 3339
// strings for time columns, base64 strings for bytes columns, ints
// widening into float columns. Everything else stays as it is, for
// schema validation to accept or reject.
func coerce(kind val.Kind, v val.Value) (val.Value, error) {
	if s, ok := v.AsString(); ok {
		switch kind {
		case val.KindTime:
			t, err := time.Parse(time.RFC3339Nano, s)
			if err != nil {
				return val.Null, fmt.Errorf("wiredb: bad time %q: %w", s, err)
			}
			return val.Time(t), nil
		case val.KindBytes:
			b, err := base64.StdEncoding.DecodeString(s)
			if err != nil {
				return val.Null, fmt.Errorf("wiredb: bad base64 %q: %w", s, err)
			}
			return val.Bytes(b), nil
		}
	}
	if kind == val.KindFloat {
		if n, ok := v.AsInt(); ok {
			return val.Float(float64(n)), nil
		}
	}
	return v, nil
}

// coerceAny is coerce for a decoded JSON scalar or a typed Go value.
func coerceAny(kind val.Kind, raw any) (val.Value, error) {
	v, err := ToValue(raw)
	if err != nil {
		return val.Null, err
	}
	return coerce(kind, v)
}

func noColumn(schema *storage.Schema, name string) error {
	return fmt.Errorf("%w: table %q has no column %q", ErrSpec, schema.Name, name)
}

func badValue(name string, err error) error {
	return fmt.Errorf("%w: column %q: %v", ErrSpec, name, err)
}

// Values converts named JSON scalars to typed column values under a
// schema (the UPDATE set clause, and InsertRow's values). Unknown
// columns are an error.
func Values(schema *storage.Schema, m map[string]any) (map[string]val.Value, error) {
	out := make(map[string]val.Value, len(m))
	for name, raw := range m {
		ci := schema.ColIndex(name)
		if ci < 0 {
			return nil, noColumn(schema, name)
		}
		v, err := coerceAny(schema.Columns[ci].Kind, raw)
		if err != nil {
			return nil, badValue(name, err)
		}
		out[name] = v
	}
	return out, nil
}

// --- DML execution ------------------------------------------------------

// InsertRow inserts one row built from JSON scalars, returning its row
// ID. The commit path runs BEFORE hooks (which may veto) and AFTER
// hooks (which capture the change as an event).
func InsertRow(db *storage.DB, table string, values map[string]any) (storage.RowID, error) {
	tbl, ok := db.Table(table)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	vals, err := Values(tbl.Schema(), values)
	if err != nil {
		return 0, err
	}
	return db.Insert(table, vals)
}

// ErrJSON marks an INSERT payload that is not JSON at all.
var ErrJSON = errors.New("wiredb: payload is not valid JSON")

// InsertJSON is InsertRow for an INSERT payload, a JSON object of
// column values, read in one pass (event.ScanObject) straight into the
// row. It fails as decoding the payload into a map did, in the same
// order: ErrJSON; ErrSpec for a payload that is not an object or holds
// a number beyond float64's range; ErrNoTable; then ErrSpec for an
// unknown column or a refused value, a repeated column's last value
// being the one that counts.
func InsertJSON(db *storage.DB, table string, data []byte) (storage.RowID, error) {
	tbl, ok := db.Table(table)
	var schema *storage.Schema
	var row storage.Row
	if ok {
		schema = tbl.Schema()
		row = make(storage.Row, len(schema.Columns))
		for i, c := range schema.Columns {
			row[i] = c.Default
		}
	}
	var unknown error
	var bad []error // per column; made at the first refused value
	err := event.ScanObject(data, func(key []byte, v val.Value, err error) {
		if !ok {
			return
		}
		ci := schema.ColIndex(string(key))
		if ci < 0 {
			if unknown == nil {
				unknown = noColumn(schema, string(key))
			}
			return
		}
		if err == nil {
			v, err = coerce(schema.Columns[ci].Kind, v)
		}
		if err != nil && bad == nil {
			bad = make([]error, len(row))
		}
		if bad != nil {
			bad[ci] = nil
			if err != nil {
				bad[ci] = badValue(string(key), err)
			}
		}
		row[ci] = v
	})
	switch {
	case errors.Is(err, event.ErrSyntax):
		return 0, fmt.Errorf("%w: %v", ErrJSON, err)
	case err != nil:
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	case !ok:
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	case unknown != nil:
		return 0, unknown
	}
	for _, err := range bad {
		if err != nil {
			return 0, err
		}
	}
	return db.InsertRow(table, row)
}

// matchIDs collects the IDs of rows satisfying a where predicate (all
// rows when the predicate is empty).
func matchIDs(tbl *storage.Table, where string) ([]storage.RowID, error) {
	var pred *expr.Predicate
	if where != "" {
		p, err := expr.Compile(where)
		if err != nil {
			return nil, fmt.Errorf("%w: where: %v", ErrSpec, err)
		}
		pred = p
	}
	schema := tbl.Schema()
	var ids []storage.RowID
	var matchErr error
	tbl.Scan(func(id storage.RowID, r storage.Row) bool {
		if pred != nil {
			ok, err := pred.Match(storage.RowResolver{Schema: schema, Row: r})
			if err != nil {
				matchErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	return ids, matchErr
}

// UpdateWhere updates every row matching the predicate in one atomic
// transaction, returning how many rows changed. BEFORE triggers may
// veto the whole transaction; AFTER triggers fire per change.
func UpdateWhere(db *storage.DB, table, where string, set map[string]any) (int, error) {
	tbl, ok := db.Table(table)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	vals, err := Values(tbl.Schema(), set)
	if err != nil {
		return 0, err
	}
	ids, err := matchIDs(tbl, where)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	txn := db.Begin()
	for _, id := range ids {
		if err := txn.Update(table, id, vals); err != nil {
			txn.Rollback()
			return 0, err
		}
	}
	if _, err := txn.Commit(); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// DeleteWhere deletes every row matching the predicate in one atomic
// transaction, returning how many rows were removed.
func DeleteWhere(db *storage.DB, table, where string) (int, error) {
	tbl, ok := db.Table(table)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	ids, err := matchIDs(tbl, where)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	txn := db.Begin()
	for _, id := range ids {
		if err := txn.Delete(table, id); err != nil {
			txn.Rollback()
			return 0, err
		}
	}
	if _, err := txn.Commit(); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// --- results ------------------------------------------------------------

// Result is the JSON form of a one-shot SELECT reply. Values are JSON
// scalars: times as RFC 3339 strings, bytes base64.
type Result struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// MarshalResult renders a query result as a single JSON line: the bytes
// encoding/json's Marshal gives for its Result.
func MarshalResult(res *query.Result) ([]byte, error) { return AppendResult(nil, res) }

// AppendResult appends MarshalResult's line to dst. The values are
// encoded straight from the rows — no intermediate Result, no
// reflection — into dst grown once, to a size estimated from them.
func AppendResult(dst []byte, res *query.Result) ([]byte, error) {
	size := 32
	for _, c := range res.Columns {
		size += len(c) + 3
	}
	for _, row := range res.Rows {
		for _, v := range row {
			size += jsonSize[v.Kind()]
			if s, ok := v.AsString(); ok {
				size += len(s)
			} else if b, ok := v.AsBytes(); ok {
				size += len(b) * 4 / 3
			}
		}
		size += 3
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"columns":`...)
	if res.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range res.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":[`...)
	for i, row := range res.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendJSONValue(dst, v); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...), nil
}

// jsonSize bounds the encoding of a value of each kind and its comma,
// but for the payload of a string or bytes and a string's escapes.
var jsonSize = [...]int{val.KindNull: 5, val.KindBool: 6, val.KindInt: 21, val.KindFloat: 25,
	val.KindString: 3, val.KindTime: len(`"2006-01-02T15:04:05.999999999Z",`), val.KindBytes: 7}

// appendJSONValue appends one value as encoding/json renders its Go
// form: times as RFC 3339 strings, bytes as base64 strings, floats in
// the 'f' format unless tiny or huge (then 'e', without a leading zero
// in the exponent), and NaN or an infinity as Marshal's error.
func appendJSONValue(dst []byte, v val.Value) ([]byte, error) {
	switch v.Kind() {
	case val.KindBool:
		b, _ := v.AsBool()
		return strconv.AppendBool(dst, b), nil
	case val.KindInt:
		n, _ := v.AsInt()
		return strconv.AppendInt(dst, n, 10), nil
	case val.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-07 → e-7
			dst = dst[:n-1]
		}
		return dst, nil
	case val.KindString:
		s, _ := v.AsString()
		return appendJSONString(dst, s), nil
	case val.KindTime:
		t, _ := v.AsTime()
		return append(t.AppendFormat(append(dst, '"'), time.RFC3339Nano), '"'), nil
	case val.KindBytes:
		b, _ := v.AsBytes()
		n := len(dst) + 1
		dst = append(dst, make([]byte, base64.StdEncoding.EncodedLen(len(b))+2)...)
		base64.StdEncoding.Encode(dst[n:], b)
		dst[n-1], dst[len(dst)-1] = '"', '"'
		return dst, nil
	}
	return append(dst, "null"...), nil
}

// appendJSONString appends s quoted as encoding/json's Marshal quotes
// it: '"', '\\' and control characters escaped (\b, \f, \n, \r and \t
// by name), '<', '>' and '&' too, U+2028 and U+2029 as \u escapes, and
// each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch k := strings.IndexRune("\"\\\b\f\n\r\t", c); {
		case k >= 0:
			dst = append(dst, '\\', "\"\\bfnrt"[k])
		case c == utf8.RuneError:
			dst = append(dst, "\\ufffd"...)
		default:
			dst = append(dst, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ParseResult decodes a SELECT reply in event.ScanResult's one pass, as
// encoding/json into a Result with integral numbers below 2^53 folded to
// int64, but for two refusals: an array or object cell is an error
// (event.ErrNotScalar), and a "Rows" is an unknown key, skipped.
func ParseResult(reply string) (*Result, error) {
	cols, rows, err := event.ScanResult(reply)
	if err != nil {
		return nil, fmt.Errorf("wiredb: result: %w", err)
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

func decodeStrict(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

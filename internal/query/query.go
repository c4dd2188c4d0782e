// Package query implements the engine's query processor: filtered,
// projected, aggregated, joined and ordered reads over storage tables,
// with index-aware planning.
//
// It also implements the paper's third capture mechanism (§2.2.a.iii
// "capturing events using queries"): a Differ runs a query repeatedly
// and turns result-set changes into events. A changed row's event
// carries both states as old_*/new_* attributes, so a pattern across
// states (§2.2.a.iii.2) is a subscription filter over them.
package query

import (
	"fmt"
	"sort"
	"strings"

	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Order direction for OrderBy.
type Order int

// Sort directions.
const (
	Asc Order = iota
	Desc
)

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

// String returns the aggregate name.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

type selectItem struct {
	alias string
	node  expr.Node
}

type aggSpec struct {
	alias string
	kind  AggKind
	col   string // empty for Count(*)
}

type orderSpec struct {
	col string
	dir Order
}

type joinSpec struct {
	table    string
	leftCol  string
	rightCol string
}

// Query is a buildable, reusable query description. Build methods return
// the query for chaining; errors surface at Run.
type Query struct {
	table   string
	where   string
	selects []selectItem
	rawSel  []string // pending un-parsed selections
	groupBy []string
	aggs    []aggSpec
	orderBy []orderSpec
	limit   int
	offset  int
	join    *joinSpec
	err     error

	noColumnar bool
}

// New starts a query over a table.
func New(table string) *Query { return &Query{table: table, limit: -1} }

// Where sets the filter predicate (expression source text).
func (q *Query) Where(src string) *Query {
	q.where = src
	return q
}

// Select adds projections. Each entry is either a column/expression, or
// "expr AS alias".
func (q *Query) Select(items ...string) *Query {
	q.rawSel = append(q.rawSel, items...)
	return q
}

// GroupBy sets grouping columns (enables aggregates).
func (q *Query) GroupBy(cols ...string) *Query {
	q.groupBy = append(q.groupBy, cols...)
	return q
}

// Agg adds an aggregate output column. col is ignored for Count with
// empty col (count of rows).
func (q *Query) Agg(alias string, kind AggKind, col string) *Query {
	q.aggs = append(q.aggs, aggSpec{alias: alias, kind: kind, col: col})
	return q
}

// OrderBy appends a sort key over an output column.
func (q *Query) OrderBy(col string, dir Order) *Query {
	q.orderBy = append(q.orderBy, orderSpec{col: col, dir: dir})
	return q
}

// Limit bounds the result size (after ordering).
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Offset skips n leading rows (after ordering).
func (q *Query) Offset(n int) *Query {
	q.offset = n
	return q
}

// NoColumnar forces row-at-a-time execution even when the table has
// columnar history. Used by benchmarks and the row-vs-columnar
// differential tests; results are identical either way.
func (q *Query) NoColumnar() *Query {
	q.noColumnar = true
	return q
}

// Join performs an inner equi-join with another table on
// left.leftCol = right.rightCol. Columns of the joined row are addressed
// bare (left first) or qualified as "table.col".
func (q *Query) Join(table, leftCol, rightCol string) *Query {
	q.join = &joinSpec{table: table, leftCol: leftCol, rightCol: rightCol}
	return q
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]val.Value
	colIdx  map[string]int
}

// ColIndex returns the position of a result column, or -1.
func (r *Result) ColIndex(name string) int {
	if r.colIdx == nil {
		r.colIdx = make(map[string]int, len(r.Columns))
		for i, c := range r.Columns {
			r.colIdx[c] = i
		}
	}
	i, ok := r.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// Get returns row i's value for the named column.
func (r *Result) Get(i int, col string) (val.Value, bool) {
	ci := r.ColIndex(col)
	if ci < 0 || i < 0 || i >= len(r.Rows) {
		return val.Null, false
	}
	return r.Rows[i][ci], true
}

// Plan describes how Run will execute, for tests and EXPLAIN-style
// diagnostics.
type Plan struct {
	Access    string // "scan", "columnar", "index-eq", "index-range"
	IndexName string
	Joined    bool
	// Columnar scans only: sealed segments considered and how many of
	// those zone maps excluded outright; then the batches of the
	// segments scanned, and how many of those their own zone maps
	// excluded. The unsealed tail is scanned (or excluded by its own
	// zone map) too but counted in none.
	Segments       int
	SegmentsPruned int
	Batches        int
	BatchesPruned  int
}

// Run executes the query.
func (q *Query) Run(db *storage.DB) (*Result, error) {
	res, _, err := q.run(db)
	return res, err
}

// Explain executes the query and also reports the chosen plan.
func (q *Query) Explain(db *storage.DB) (*Result, Plan, error) {
	return q.run(db)
}

func (q *Query) run(db *storage.DB) (*Result, Plan, error) {
	var plan Plan
	tbl, ok := db.Table(q.table)
	if !ok {
		return nil, plan, fmt.Errorf("query: no table %q", q.table)
	}
	schema := tbl.Schema()

	var pred *expr.Predicate
	if q.where != "" {
		p, err := expr.Compile(q.where)
		if err != nil {
			return nil, plan, err
		}
		pred = p
	}

	// Parse pending selections.
	selects := append([]selectItem(nil), q.selects...)
	for _, raw := range q.rawSel {
		item, err := parseSelect(raw)
		if err != nil {
			return nil, plan, err
		}
		selects = append(selects, item)
	}

	// Access path: prefer an equality index, then a range index. A
	// plain scan defers materialization — it is served from the
	// columnar store below when it can be.
	ids, rows, plan := q.access(tbl, pred)

	var rightTbl *storage.Table
	var rightRows map[string][]storage.Row
	if q.join != nil {
		rt, ok := db.Table(q.join.table)
		if !ok {
			return nil, plan, fmt.Errorf("query: no join table %q", q.join.table)
		}
		rightTbl = rt
		rci := rt.Schema().ColIndex(q.join.rightCol)
		if rci < 0 {
			return nil, plan, fmt.Errorf("query: join column %q not in %q", q.join.rightCol, q.join.table)
		}
		if schema.ColIndex(q.join.leftCol) < 0 {
			return nil, plan, fmt.Errorf("query: join column %q not in %q", q.join.leftCol, q.table)
		}
		// Build side: hash the right table.
		rightRows = make(map[string][]storage.Row)
		_, rrows := rt.ScanRows()
		for _, rr := range rrows {
			key := string(val.AppendKey(nil, rr[rci]))
			rightRows[key] = append(rightRows[key], rr)
		}
		plan.Joined = true
	}

	// The sink shapes the output: aggregation, or projection of the
	// select list (default: all base-table columns; a join adds the
	// right table's, qualified).
	var sink rowSink
	switch {
	case len(q.groupBy) > 0 || len(q.aggs) > 0:
		sink = newGroupTable(q.groupBy, q.aggs)
	case len(selects) > 0:
		cols := make([]string, len(selects))
		for i, s := range selects {
			cols[i] = s.alias
		}
		sink = newProjector(selects, cols)
	default:
		cols := make([]string, 0, len(schema.Columns))
		for _, c := range schema.Columns {
			cols = append(cols, c.Name)
		}
		if q.join != nil {
			for _, c := range rightTbl.Schema().Columns {
				cols = append(cols, q.join.table+"."+c.Name)
			}
		}
		sink = newProjector(nil, cols)
	}

	// Filter (and join) pass. A full scan tries the table's columnar
	// history first: segments and tail are filtered with vector kernels
	// and feed the sink batch-wise. Everything else — index access,
	// joins, predicates the kernels cannot express — feeds it row by row.
	if plan.Access == "scan" {
		cs, served, err := q.colExec(db, tbl, schema, pred, sink)
		if err != nil {
			return nil, plan, err
		}
		if served {
			plan.Access = "columnar"
			plan.Segments, plan.SegmentsPruned = cs.segments, cs.pruned
			plan.Batches, plan.BatchesPruned = cs.batches, cs.batchesPruned
		} else if pred == nil || q.join != nil {
			_, rows = tbl.ScanRows()
		} else {
			// Only the rows the predicate accepts leave the table, and
			// they need not be tested again below.
			_, rows, err = tbl.ScanRowsWhere(func(r storage.Row) (bool, error) {
				return pred.Match(storage.RowResolver{Schema: schema, Row: r})
			})
			if err != nil {
				return nil, plan, err
			}
			pred = nil
		}
	}
	lci := -1
	if q.join != nil {
		lci = schema.ColIndex(q.join.leftCol)
	}
	consider := func(row storage.Row) error {
		if q.join != nil {
			key := string(val.AppendKey(nil, row[lci]))
			for _, rr := range rightRows[key] {
				r := joinResolver{
					left: storage.RowResolver{Schema: schema, Row: row},
					right: storage.RowResolver{
						Schema: rightTbl.Schema(), Row: rr},
					leftName:  q.table,
					rightName: q.join.table,
				}
				if pred != nil {
					ok, err := pred.Match(r)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				if err := sink.addRow(r); err != nil {
					return err
				}
			}
			return nil
		}
		r := storage.RowResolver{Schema: schema, Row: row}
		if pred != nil {
			ok, err := pred.Match(r)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return sink.addRow(r)
	}
	if rows != nil {
		for _, row := range rows {
			if err := consider(row); err != nil {
				return nil, plan, err
			}
		}
	} else {
		for _, id := range ids {
			row, ok := tbl.Get(id)
			if !ok {
				continue
			}
			if err := consider(row); err != nil {
				return nil, plan, err
			}
		}
	}
	out := sink.result()

	// Order, offset, limit.
	if len(q.orderBy) > 0 {
		idxs := make([]int, len(q.orderBy))
		for i, o := range q.orderBy {
			ci := out.ColIndex(o.col)
			if ci < 0 {
				return nil, plan, fmt.Errorf("query: ORDER BY column %q not in output", o.col)
			}
			idxs[i] = ci
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			for i, o := range q.orderBy {
				av, bv := out.Rows[a][idxs[i]], out.Rows[b][idxs[i]]
				if val.Equal(av, bv) {
					continue
				}
				less := val.Less(av, bv)
				if o.dir == Desc {
					return !less
				}
				return less
			}
			return false
		})
	}
	if q.offset > 0 {
		if q.offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[q.offset:]
		}
	}
	if q.limit >= 0 && q.limit < len(out.Rows) {
		out.Rows = out.Rows[:q.limit]
	}
	return out, plan, nil
}

// access picks the cheapest access path for the base table given the
// predicate's indexable conjuncts.
func (q *Query) access(tbl *storage.Table, pred *expr.Predicate) ([]storage.RowID, []storage.Row, Plan) {
	if pred != nil {
		for _, eq := range pred.EqPreds {
			if name := tbl.IndexOn(eq.Field, false); name != "" {
				ids, err := tbl.LookupEq(name, eq.Value)
				if err == nil {
					return ids, nil, Plan{Access: "index-eq", IndexName: name}
				}
			}
		}
		for _, rp := range pred.RangePreds {
			if name := tbl.IndexOn(rp.Field, true); name != "" {
				var lo, hi *val.Value
				if !rp.LoUnbounded {
					v := rp.Lo
					lo = &v
				}
				if !rp.HiUnbounded {
					v := rp.Hi
					hi = &v
				}
				ids, err := tbl.LookupRange(name, lo, hi, rp.LoOpen, rp.HiOpen)
				if err == nil {
					return ids, nil, Plan{Access: "index-range", IndexName: name}
				}
			}
		}
	}
	// Scans are left unmaterialized; run() decides between the
	// columnar store and tbl.ScanRows.
	return nil, nil, Plan{Access: "scan"}
}

// parseSelect parses "expr" or "expr AS alias".
func parseSelect(raw string) (selectItem, error) {
	src := raw
	alias := ""
	// Split on the last top-level " AS " (case-insensitive, simple scan:
	// AS cannot appear inside our expression grammar except in BETWEEN,
	// which uses AND, so a plain case-insensitive search suffices).
	upper := strings.ToUpper(raw)
	if i := strings.LastIndex(upper, " AS "); i >= 0 {
		src = strings.TrimSpace(raw[:i])
		alias = strings.TrimSpace(raw[i+4:])
	}
	node, err := expr.Parse(src)
	if err != nil {
		return selectItem{}, fmt.Errorf("query: select %q: %w", raw, err)
	}
	if alias == "" {
		alias = src
	}
	return selectItem{alias: alias, node: node}, nil
}

// joinResolver resolves bare names (left first, then right) and
// "table.col" qualified names over a joined row pair.
type joinResolver struct {
	left, right         storage.RowResolver
	leftName, rightName string
}

func (j joinResolver) Get(name string) (val.Value, bool) {
	if strings.HasPrefix(name, j.leftName+".") {
		return j.left.Get(name[len(j.leftName)+1:])
	}
	if strings.HasPrefix(name, j.rightName+".") {
		return j.right.Get(name[len(j.rightName)+1:])
	}
	if v, ok := j.left.Get(name); ok {
		return v, true
	}
	return j.right.Get(name)
}

package query

import (
	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Columnar execution: a query that would otherwise scan the whole
// table is served from the table's columnar history — its sealed
// segments and its unsealed tail, which expose the same surface — by
// one loop. A zone-map test skips a segment (or the tail) outright;
// otherwise the predicate's columns are decoded a 1k-row batch at a
// time — a batch whose own zones exclude the predicate is skipped —
// and the predicate runs as compiled vector kernels into a selection
// vector; only batches with a selected row have their other columns
// decoded, at the selected rows, and only those rows are boxed, by the
// sink that aggregates or projects them. The row store is consulted only for
// rows an UPDATE rewrote after their insert was captured (the
// snapshot's Modified list). Results are exactly what the row path
// produces — pinned by the differential tests in colscan_test.go.

type colStats struct {
	segments int // sealed segments in the snapshot
	pruned   int // sealed segments skipped entirely via zone maps
	// Batches of the sealed segments scanned, and those skipped by their
	// own zones.
	batches, batchesPruned int
}

// colExec attempts columnar execution of a full-table scan into sink.
// ok=false means "not servable columnar" (no manager or history,
// uncompilable filter, joins, forced row scan, a history that is behind
// the table): nothing was fed and the caller must run the row path.
// ok=true with err set means the query failed in a way the row path
// would also fail.
func (q *Query) colExec(db *storage.DB, tbl *storage.Table, schema *storage.Schema, pred *expr.Predicate, sink rowSink) (stats colStats, ok bool, err error) {
	if q.join != nil || q.noColumnar {
		return stats, false, nil
	}
	mgr := columnar.Of(db)
	if mgr == nil {
		return stats, false, nil
	}
	st := mgr.Table(q.table)
	if st == nil {
		return stats, false, nil
	}
	var prog *columnar.FilterProg
	if pred != nil {
		p, compilable := columnar.CompileFilter(pred.Root, schema)
		if !compilable {
			return stats, false, nil
		}
		prog = p
	}
	// The history is fed by after-commit hooks, and a commit is
	// acknowledged as soon as it is in the row store: when another
	// goroutine is delivering hooks, this table's last commit — perhaps
	// the caller's own — may not have reached the history yet. The row
	// path reads the row store, which has it.
	if tbl.LastCommit() > mgr.Observed() {
		return stats, false, nil
	}
	snap := st.Snapshot()
	if snap.Schema != schema {
		return stats, false, nil
	}
	stats.segments = len(snap.Segs)

	// Decode only the columns the query reads: the predicate's for
	// every batch, the sink's for batches with a selected row.
	first, rest := sink.bind(schema), []bool(nil)
	if prog != nil {
		first, rest = prog.NeedCols(), first
	}

	mask := make([]int8, columnar.BatchSize)
	sel := make([]int32, 0, columnar.BatchSize)
	var rd *columnar.Reader // one for the whole scan
	var b columnar.Batch
	scan := func(sv columnar.SegView) error {
		if rd == nil {
			rd = sv.Seg.NewReader(first)
			if pred != nil {
				rd.Prune(pred.EqPreds, pred.RangePreds)
			}
		}
		rd.Reset(sv.Seg)
		for rd.Next(&b) {
			sel = sel[:0]
			if prog != nil {
				prog.Eval(&b, mask)
				for i := 0; i < b.Len; i++ {
					if mask[i] == 1 {
						sel = append(sel, int32(i))
					}
				}
			} else {
				for i := 0; i < b.Len; i++ {
					sel = append(sel, int32(i))
				}
			}
			if sv.HasDead() {
				live := sel[:0]
				for _, i := range sel {
					if !sv.IsDead(b.Start + int(i)) {
						live = append(live, i)
					}
				}
				sel = live
			}
			if len(sel) == 0 {
				continue
			}
			if rest != nil {
				rd.Fill(&b, rest, sel)
			}
			if err := sink.addBatch(&b, sel); err != nil {
				return err
			}
		}
		return nil
	}
	for _, sv := range snap.Segs {
		if pred != nil && !sv.Seg.CanMatch(pred.EqPreds, pred.RangePreds) {
			stats.pruned++
			continue
		}
		if err := scan(sv); err != nil {
			return stats, true, err
		}
	}
	if rd != nil { // the tail, scanned next, keeps no batch zones
		stats.batches, stats.batchesPruned = rd.Batches()
	}
	if t := snap.Tail; t.Seg != nil && (pred == nil || t.Seg.CanMatch(pred.EqPreds, pred.RangePreds)) {
		if err := scan(t); err != nil {
			return stats, true, err
		}
	}

	// Rows rewritten since their insert was captured: their current
	// version is in the row store, fetched as of now — the scan is
	// point-in-time as of the snapshot, and commits racing the query
	// land in the next one.
	for _, id := range snap.Modified {
		row, live := tbl.Get(id)
		if !live {
			continue
		}
		r := storage.RowResolver{Schema: schema, Row: row}
		if pred != nil {
			m, err := pred.Match(r)
			if err != nil {
				return stats, true, err
			}
			if !m {
				continue
			}
		}
		if err := sink.addRow(r); err != nil {
			return stats, true, err
		}
	}
	return stats, true, nil
}

// projector is the projection sink: it evaluates the select list (or
// copies every column) for each row it is fed.
type projector struct {
	items []selectItem // empty: every column, by name
	out   *Result

	// For batches: the schema column an output column copies, or -1
	// when it is an expression to evaluate against row.
	from []int
	row  batchResolver
}

func newProjector(items []selectItem, cols []string) *projector {
	return &projector{items: items, out: &Result{Columns: cols}}
}

func (p *projector) bind(schema *storage.Schema) []bool {
	need := make([]bool, len(schema.Columns))
	p.row.schema = schema
	p.from = make([]int, len(p.out.Columns))
	for j, c := range p.out.Columns {
		if len(p.items) == 0 { // SELECT *: every column, by name
			p.from[j] = schema.ColIndex(c)
			need[p.from[j]] = true
			continue
		}
		p.from[j] = -1
		if f, isField := p.items[j].node.(*expr.Field); isField {
			p.from[j] = schema.ColIndex(f.Name)
		}
		for _, f := range expr.Fields(p.items[j].node) {
			if ci := schema.ColIndex(f); ci >= 0 {
				need[ci] = true
			}
		}
	}
	return need
}

func (p *projector) addRow(r expr.Resolver) error {
	row := make([]val.Value, len(p.out.Columns))
	for j, c := range p.out.Columns {
		if len(p.items) == 0 {
			row[j], _ = r.Get(c)
			continue
		}
		v, err := expr.Eval(p.items[j].node, r)
		if err != nil {
			return err
		}
		row[j] = v
	}
	p.out.Rows = append(p.out.Rows, row)
	return nil
}

// addBatch boxes the selected rows straight into output rows, which
// share one allocation per batch.
func (p *projector) addBatch(b *columnar.Batch, sel []int32) error {
	nc := len(p.from)
	flat := make([]val.Value, len(sel)*nc)
	p.row.b = b
	for k, i := range sel {
		row := flat[k*nc : (k+1)*nc : (k+1)*nc]
		for j, ci := range p.from {
			if ci >= 0 {
				row[j] = b.Vecs[ci].Value(int(i))
				continue
			}
			p.row.i = int(i)
			v, err := expr.Eval(p.items[j].node, &p.row)
			if err != nil {
				return err
			}
			row[j] = v
		}
		p.out.Rows = append(p.out.Rows, row)
	}
	return nil
}

func (p *projector) result() *Result { return p.out }

// batchResolver resolves column names against one row of a batch.
type batchResolver struct {
	schema *storage.Schema
	b      *columnar.Batch
	i      int
}

func (r *batchResolver) Get(name string) (val.Value, bool) {
	ci := r.schema.ColIndex(name)
	if ci < 0 {
		return val.Null, false
	}
	return r.b.Vecs[ci].Value(r.i), true
}

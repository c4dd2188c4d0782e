package query

import (
	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Columnar execution: a query that would otherwise scan the whole
// table reads what the table holds, taken at one instant under its read
// lock (storage.Table.View). It serves a predicate whose top-level
// conjuncts are all atoms (field op literal, expr.Atom); any other takes
// the row path. Its sealed runs are columnar segments: a zone test of
// the atoms skips a run outright; otherwise the atoms' columns are
// decoded a 1k-row batch at a time — a batch whose own zones exclude an
// atom is skipped — and each atom's kernel narrows the batch's
// selection vector in turn, which then loses the rows the table no
// longer holds in the run (its live bits); only batches with a selected
// row have their other columns decoded, at the selected rows, and only
// those rows are boxed, by the sink that aggregates or projects them.
// The hot rows sit behind one zone test of their own, and go through
// the row predicate when it admits them. Results are exactly what the
// row path produces — pinned by the differential tests in
// colscan_test.go.

type colStats struct {
	segments int // sealed runs of the table
	pruned   int // sealed runs skipped entirely via zone maps
	// Batches of the sealed runs scanned, and those skipped by their
	// own zones.
	batches, batchesPruned int
}

// colExec attempts columnar execution of a full-table scan into sink.
// ok=false means "not servable columnar" (a conjunct that is not an
// atom, joins, forced row scan): nothing was fed and the caller must run the row
// path. ok=true with err set means the query failed in a way the row
// path would also fail.
func (q *Query) colExec(tbl *storage.Table, schema *storage.Schema, pred *expr.Predicate, sink rowSink, sc *Scratch) (stats colStats, ok bool, err error) {
	if q.join != nil || q.noColumnar {
		return stats, false, nil
	}
	var prog *columnar.FilterProg
	var atoms []expr.Atom // what the zone maps test
	var admits func(storage.Zones, int) bool
	if pred != nil {
		p, compilable := columnar.CompileFilter(pred, schema)
		if !compilable {
			return stats, false, nil
		}
		prog, atoms = p, pred.Atoms
		admits = func(z storage.Zones, rows int) bool { return columnar.Admits(schema, z, rows, atoms) }
	}
	view := tbl.View(admits)
	stats.segments, stats.pruned = len(view.Runs)+view.Pruned, view.Pruned

	// Decode only the columns the query reads: the predicate's for
	// every batch, the sink's for batches with a selected row.
	sc.need = append(sc.need[:0], make([]bool, len(schema.Columns))...)
	first, rest := sink.bind(schema, sc.need), []bool(nil)
	if prog != nil {
		first, rest = prog.NeedCols(), first
	}

	if sc.sel == nil {
		sc.sel = make([]int32, 0, columnar.BatchSize)
	}
	sel := sc.sel
	rd, b := &sc.rd, &sc.b // one reader for the whole scan
	for k, run := range view.Runs {
		seg := run.Seg.(*columnar.Segment)
		if k == 0 {
			rd.Reuse(seg, first)
			rd.Prune(atoms)
		}
		rd.Reset(seg)
		for rd.Next(b) {
			sel = sel[:0]
			for i := 0; i < b.Len; i++ {
				sel = append(sel, int32(i))
			}
			if prog != nil {
				sel = prog.Filter(b, sel)
			}
			if run.Live != nil {
				live := sel[:0]
				for _, i := range sel {
					if p := b.Start + int(i); run.Live[p/64]&(1<<uint(p%64)) != 0 {
						live = append(live, i)
					}
				}
				sel = live
			}
			if len(sel) == 0 {
				continue
			}
			if rest != nil {
				rd.Fill(b, rest, sel)
			}
			if err := sink.addBatch(b, sel); err != nil {
				return stats, true, err
			}
		}
	}
	if len(view.Runs) > 0 {
		stats.batches, stats.batchesPruned = rd.Batches()
	}

	// The hot rows the zone test let through, as the row path reads
	// them.
	r := &storage.RowResolver{Schema: schema}
	view.Hot(func(_ storage.RowID, row storage.Row) bool {
		r.Row = row
		if pred != nil {
			var m bool
			if m, err = pred.Match(r); err != nil || !m {
				return err == nil
			}
		}
		err = sink.addRow(r)
		return err == nil
	})
	return stats, true, err
}

// projector is the projection sink: it evaluates the select list (or
// copies every column) for each row it is fed.
type projector struct {
	items []selectItem // empty: every column, by name
	cols  []string
	rows  *rowArena

	// For batches: the schema column an output column copies, or -1
	// when it is an expression to evaluate against row.
	from []int
	row  batchResolver
}

// reset readies p to project cols (items, or every column by name when
// there are none) into rows.
func (p *projector) reset(items []selectItem, cols []string, rows *rowArena) {
	p.items, p.cols, p.rows, p.from = items, cols, rows, p.from[:0]
}

func (p *projector) bind(schema *storage.Schema, need []bool) []bool {
	p.row.schema = schema
	for j, c := range p.cols {
		if len(p.items) == 0 { // SELECT *: every column, by name
			p.from = append(p.from, schema.ColIndex(c))
			need[p.from[j]] = true
			continue
		}
		from := -1
		if f, isField := p.items[j].node.(*expr.Field); isField {
			from = schema.ColIndex(f.Name)
		}
		p.from = append(p.from, from)
		for _, f := range expr.Fields(p.items[j].node) {
			if ci := schema.ColIndex(f); ci >= 0 {
				need[ci] = true
			}
		}
	}
	return need
}

func (p *projector) addRow(r expr.Resolver) error {
	row := p.rows.row(len(p.cols))
	for j, c := range p.cols {
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
	return nil
}

// addBatch boxes the selected rows straight into output rows.
func (p *projector) addBatch(b *columnar.Batch, sel []int32) error {
	p.rows.reserve(len(sel) * len(p.from))
	p.row.b = b
	for _, i := range sel {
		row := p.rows.row(len(p.from))
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
	}
	return nil
}

func (p *projector) finish() {}

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

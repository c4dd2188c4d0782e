package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// The differential tests pin the columnar scan to the row scan: every
// query in the corpus runs once through each path and the results must
// be identical, column for column and row for row. The fixture mixes
// sealed runs, hot rows, and sealed rows that were later updated or
// deleted, so the merge logic is always in play; the layout tests then
// hold the data fixed and move it between sealed runs and hot rows
// (hot ≡ sealed ≡ row).

var colSyms = []string{"ACME", "BETA", "GAMA", "DELT", "EPSI"}

func colEvent(rng *rand.Rand, i int) map[string]val.Value {
	m := map[string]val.Value{
		"id": val.Int(int64(i)),
		"ts": val.Time(time.Unix(1700000000+int64(i), 0).UTC()),
	}
	if rng.Intn(8) != 0 {
		// The symbols in play shift every 200 rows, so segments (sealed
		// every 64) have dictionaries that differ in content and order.
		m["sym"] = val.String(colSyms[(i/200+rng.Intn(3))%len(colSyms)])
	}
	if rng.Intn(8) != 0 {
		// Quarters are exactly representable, so float sums are the
		// same in any accumulation order and both scan paths agree to
		// the last bit.
		m["price"] = val.Float(float64(rng.Intn(10000)) / 4)
	}
	if rng.Intn(8) != 0 {
		m["qty"] = val.Int(int64(rng.Intn(1000) - 500))
	}
	if rng.Intn(8) != 0 {
		m["flag"] = val.Bool(rng.Intn(2) == 0)
	}
	if rng.Intn(8) != 0 {
		m["blob"] = val.Bytes([]byte{0xB0, byte(rng.Intn(4))})
	}
	return m
}

func colSchema(t *testing.T) *storage.Schema {
	t.Helper()
	schema, err := storage.NewSchema("events", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString},
		{Name: "price", Kind: val.KindFloat},
		{Name: "qty", Kind: val.KindInt},
		{Name: "flag", Kind: val.KindBool},
		{Name: "blob", Kind: val.KindBytes},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// colDB builds an events table whose rows are split across sealed
// segments (with some rows updated or deleted after sealing) and fresh
// hot rows.
func colDB(t *testing.T, sealed, tail int) *storage.DB {
	t.Helper()
	db, _ := colDBWith(t, sealed, tail)
	return db
}

// colDBWith is colDB, with the manager that seals its history.
func colDBWith(t *testing.T, sealed, tail int) (*storage.DB, *columnar.Manager) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(colSchema(t)); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	rng := rand.New(rand.NewSource(7))
	ids := make([]storage.RowID, 0, sealed)
	for i := 0; i < sealed; i++ {
		id, err := db.Insert("events", colEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Compact(""); err != nil {
		t.Fatal(err)
	}
	// Mutate a slice of the sealed range so the snapshot's dead and
	// modified sets are non-empty: those rows must come from the row
	// store (or vanish), not the segment.
	for i := 0; i < sealed/10; i++ {
		if err := db.UpdateRow("events", ids[rng.Intn(len(ids))], map[string]val.Value{
			"price": val.Float(999.5), "sym": val.String("MODX"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sealed/20; i++ {
		// A repeated id is a no-op delete; the error is irrelevant here.
		_ = db.DeleteRow("events", ids[rng.Intn(len(ids))])
	}
	for i := 0; i < tail; i++ {
		if _, err := db.Insert("events", colEvent(rng, sealed+i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, m
}

// resultEqual compares two results exactly: same columns, same rows,
// same values (kind and rendering). Rows are compared under a
// canonical sort because unordered scans surface rows in map-iteration
// order, which is not part of the query contract; ordered queries in
// the corpus sort on a unique key so the row SET already pins them.
func resultEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	canonSort(got)
	canonSort(want)
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Kind() != w.Kind() || g.String() != w.String() {
				t.Fatalf("%s: row %d col %s: %s(%v) vs %s(%v)",
					label, i, got.Columns[j], g.String(), g.Kind(), w.String(), w.Kind())
			}
		}
	}
}

// canonSort orders rows lexicographically by each cell's kind and
// rendering, making results from map-ordered scans comparable.
func canonSort(r *Result) {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if ak, bk := int(a[k].Kind()), int(b[k].Kind()); ak != bk {
				return ak < bk
			}
			if as, bs := a[k].String(), b[k].String(); as != bs {
				return as < bs
			}
		}
		return false
	})
}

// colQueries is the differential corpus. It spans vectorizable
// predicates, predicates that force the row fallback inside the
// columnar path (LIKE, arithmetic), projections, grouping, all five
// aggregates, ordering and paging.
func colQueries() map[string]func() *Query {
	return map[string]func() *Query{
		"select-all":     func() *Query { return New("events") },
		"where-eq":       func() *Query { return New("events").Where("sym = 'ACME'") },
		"where-range":    func() *Query { return New("events").Where("price > 25 AND price <= 75") },
		"where-or":       func() *Query { return New("events").Where("sym = 'BETA' OR qty < -100") },
		"where-not":      func() *Query { return New("events").Where("NOT (flag = true)") },
		"where-between":  func() *Query { return New("events").Where("qty BETWEEN -50 AND 200") },
		"where-in":       func() *Query { return New("events").Where("sym IN ('ACME', 'GAMA', 'NOPE')") },
		"where-null":     func() *Query { return New("events").Where("price IS NULL") },
		"where-notnull":  func() *Query { return New("events").Where("sym IS NOT NULL AND flag = false") },
		"where-time":     func() *Query { return New("events").Where("ts >= 1700000100") },
		"where-modified": func() *Query { return New("events").Where("sym = 'MODX'") },
		"where-none":     func() *Query { return New("events").Where("sym = 'ZZZZ'") },
		"where-like":     func() *Query { return New("events").Where("sym LIKE 'A%'") },
		"where-arith":    func() *Query { return New("events").Where("price * 2 > 100") },
		"project":        func() *Query { return New("events").Select("id", "sym", "price") },
		"project-where":  func() *Query { return New("events").Select("id", "qty").Where("qty > 0") },
		"order-limit":    func() *Query { return New("events").OrderBy("id", Desc).Limit(17).Offset(3) },
		"count-star":     func() *Query { return New("events").Agg("n", Count, "") },
		"count-col":      func() *Query { return New("events").Agg("n", Count, "price") },
		"sum-avg":        func() *Query { return New("events").Agg("s", Sum, "qty").Agg("a", Avg, "price") },
		"min-max":        func() *Query { return New("events").Agg("lo", Min, "price").Agg("hi", Max, "price") },
		"min-max-str":    func() *Query { return New("events").Agg("lo", Min, "sym").Agg("hi", Max, "sym") },
		"min-max-time":   func() *Query { return New("events").Agg("lo", Min, "ts").Agg("hi", Max, "ts") },
		"agg-where":      func() *Query { return New("events").Where("sym = 'ACME'").Agg("n", Count, "").Agg("s", Sum, "qty") },
		"agg-empty": func() *Query {
			return New("events").Where("sym = 'ZZZZ'").Agg("n", Count, "").Agg("s", Sum, "qty").Agg("lo", Min, "price")
		},
		"group-agg": func() *Query {
			return New("events").GroupBy("sym").Agg("n", Count, "").Agg("hi", Max, "price").OrderBy("sym", Asc)
		},
		"group-agg-where": func() *Query {
			return New("events").Where("qty >= -250").GroupBy("flag").Agg("n", Count, "").OrderBy("n", Desc)
		},
		// Grouped aggregates: one key of each kind (every nullable column
		// has NULL keys), every aggregate, multi-column and unknown keys.
		"group-string": func() *Query {
			return New("events").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty").
				Agg("a", Avg, "price").Agg("lo", Min, "ts").Agg("hi", Max, "blob")
		},
		"group-int":   func() *Query { return New("events").Where("qty BETWEEN -5 AND 5").GroupBy("qty").Agg("n", Count, "") },
		"group-time":  func() *Query { return New("events").Where("id < 40").GroupBy("ts").Agg("s", Sum, "qty") },
		"group-bool":  func() *Query { return New("events").GroupBy("flag").Agg("c", Count, "sym").Agg("a", Avg, "qty") },
		"group-float": func() *Query { return New("events").Where("id < 150").GroupBy("price").Agg("n", Count, "") },
		"group-bytes": func() *Query {
			return New("events").GroupBy("blob").Agg("n", Count, "").Agg("lo", Min, "sym").Agg("hi", Max, "sym")
		},
		"group-two": func() *Query {
			return New("events").GroupBy("sym", "flag").Agg("n", Count, "").Agg("lo", Min, "price").Agg("hi", Max, "qty")
		},
		"group-int-bytes": func() *Query {
			return New("events").Where("qty >= 0 AND qty < 3").GroupBy("qty", "blob").Agg("s", Sum, "price")
		},
		"group-unknown-key": func() *Query { return New("events").GroupBy("nosuch").Agg("n", Count, "").Agg("s", Sum, "nosuch") },
		"group-empty":       func() *Query { return New("events").Where("sym = 'ZZZZ'").GroupBy("sym").Agg("n", Count, "") },
		"group-modified":    func() *Query { return New("events").Where("price > 999").GroupBy("sym").Agg("n", Count, "") },
		"group-like":        func() *Query { return New("events").Where("sym LIKE 'A%'").GroupBy("flag").Agg("s", Sum, "qty") },
		"group-order-limit": func() *Query {
			return New("events").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty").
				OrderBy("n", Desc).OrderBy("sym", Asc).Limit(3).Offset(1)
		},
		// Projections the batch resolver evaluates: expressions, an
		// unknown column, a column repeated under an alias.
		"project-expr":    func() *Query { return New("events").Select("id", "price * 2 AS dbl", "qty + 1").Where("qty > 400") },
		"project-unknown": func() *Query { return New("events").Select("id", "nosuch", "id AS again").Where("id < 20") },
	}
}

// batchZoneDB seals rows 0..8191 as two segments of four batches each
// under an 800-row tail, then rewrites and deletes rows in every batch.
// Row id i sits at position i%4096 of its segment; qty is NULL
// throughout batch 1 and 6000 at row 4000 alone, so the first
// segment's zones admit predicates that most of its batches' exclude.
func batchZoneDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(colSchema(t)); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 9000; i++ {
		ev := colEvent(rng, i)
		switch {
		case i >= 1024 && i < 2048:
			delete(ev, "qty")
		case i == 4000:
			ev["qty"] = val.Int(6000)
		}
		if _, err := db.Insert("events", ev); err != nil {
			t.Fatal(err)
		}
		if i+1 == 4096 || i+1 == 8192 {
			if _, err := m.Compact(""); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl, _ := db.Table("events")
	rowIDs, stored := tbl.ScanRows()
	for k, row := range stored {
		switch id, _ := row[0].AsInt(); id % 50 {
		case 7: // now matches the qty ranges below, from the row store
			err = db.UpdateRow("events", rowIDs[k], map[string]val.Value{"qty": val.Int(5000 + id), "sym": val.String("MODX")})
		case 9:
			err = db.DeleteRow("events", rowIDs[k])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// batchQueries are the cases batch zones prune (over batchZoneDB): a
// range inside one batch, int equality, ranges ending on batch
// boundaries, a batch of NULLs, and rows a skipped batch holds dead
// copies of that the row store now says match.
func batchQueries() map[string]func() *Query {
	where := func(src string) func() *Query { return func() *Query { return New("events").Where(src) } }
	return map[string]func() *Query{
		"batch-inside":   where("id >= 1100 AND id < 1900"),
		"batch-int-eq":   where("id = 2500"),
		"batch-ends":     where("id < 1024"),
		"batch-bounds":   where("id > 1023 AND id <= 2047"),
		"batch-last":     where("id >= 3072 AND id < 4096"),
		"batch-nulls":    where("qty > -1000"),
		"batch-nulls-eq": where("qty = 7"),
		"batch-modified": where("qty >= 5000"),
		"batch-project": func() *Query {
			return New("events").Select("id", "ts", "qty", "blob").Where("id >= 2000 AND id < 2100 AND qty > 0")
		},
		"batch-group": func() *Query {
			return New("events").Where("id >= 1100 AND id < 1900").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty").Agg("hi", Max, "ts")
		},
	}
}

func TestColumnarDifferential(t *testing.T) {
	for _, fx := range []struct {
		name  string
		db    *storage.DB
		batch map[string]func() *Query
		// The fixture's own corpus, in place of colQueries, and the
		// predicates whose hot rows its zone must exclude.
		own      map[string]func() *Query
		excluded []string
	}{
		{name: "segments of one batch", db: colDB(t, 900, 60)},
		{name: "segments of four batches", db: batchZoneDB(t), batch: batchQueries()},
		{name: "hot rows below sealed runs", db: hotEdgeDB(t), own: hotEdgeQueries(),
			excluded: []string{"qty > 100000", "id < 0", "sym = 'ZZZZ'", "qty BETWEEN -9000 AND -1000"}},
	} {
		queries := colQueries()
		if fx.own != nil {
			queries = fx.own
		}
		for name, mk := range fx.batch {
			queries[name] = mk
		}
		for _, src := range fx.excluded {
			if n := hotRead(t, fx.db, src); n != 0 {
				t.Fatalf("%s: %q reads %d hot rows, want its zone to exclude them", fx.name, src, n)
			}
		}
		if fx.own != nil && hotRead(t, fx.db, "qty >= 7000") == 0 {
			t.Fatalf("%s: the hot zone excludes the rows updated to qty >= 7000", fx.name)
		}
		for name, mk := range queries {
			label := fx.name + ", " + name
			col, plan, colErr := mk().Explain(fx.db)
			row, rowErr := mk().NoColumnar().Run(fx.db)
			if (colErr == nil) != (rowErr == nil) {
				t.Fatalf("%s: columnar err %v vs row err %v", label, colErr, rowErr)
			}
			if colErr != nil {
				if colErr.Error() != rowErr.Error() {
					t.Fatalf("%s: error text %q vs %q", label, colErr, rowErr)
				}
				continue
			}
			if fx.batch[name] != nil && (plan.Access != "columnar" || plan.BatchesPruned == 0) {
				t.Fatalf("%s: plan %+v prunes no batch", label, plan)
			}
			resultEqual(t, label, col, row)
		}
	}
}

// hotRead returns how many hot rows of the events table a scan under
// src reads: none when their zone excludes it.
func hotRead(t *testing.T, db *storage.DB, src string) int {
	t.Helper()
	tbl, _ := db.Table("events")
	p, err := expr.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	tbl.View(func(z storage.Zones, rows int) bool {
		return columnar.Admits(tbl.Schema(), z, rows, p.Atoms)
	}).Hot(func(storage.RowID, storage.Row) bool { n++; return true })
	return n
}

// hotEdgeDB puts hot rows beside and below sealed runs in every way
// they get there: cold rows updated out of every range the table had, a
// run given back by the storage.SparseDiv rule, a segment Evict
// declined, hot rows updated in place, and NaN, −0 and NULL values.
func hotEdgeDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(colSchema(t)); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	rng := rand.New(rand.NewSource(5))
	next := 0
	insert := func(n int, edit func(map[string]val.Value)) []storage.RowID {
		var ids []storage.RowID
		for end := next + n; next < end; next++ {
			ev := colEvent(rng, next)
			if edit != nil {
				edit(ev)
			}
			id, err := db.Insert("events", ev)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		return ids
	}
	update := func(id storage.RowID, set map[string]val.Value) {
		if err := db.UpdateRow("events", id, set); err != nil {
			t.Fatal(err)
		}
	}
	compact := func() {
		if _, err := m.Compact(""); err != nil {
			t.Fatal(err)
		}
	}
	a := insert(300, nil)
	compact()
	b := insert(300, nil)
	compact()
	// Rewritten before their seal: their segment holds 30 live rows of
	// 150, and the table declines it.
	for _, id := range insert(150, nil)[:120] {
		update(id, map[string]val.Value{"price": val.Float(0.5)})
	}
	compact()
	// 230 of run b's 300 rows go: the other 70 are taken back hot.
	for _, id := range b[:230] {
		if err := db.DeleteRow("events", id); err != nil {
			t.Fatal(err)
		}
	}
	for k, id := range a[:20] {
		update(id, map[string]val.Value{"qty": val.Int(int64(7000 + k)), "sym": val.String("ZZZA")})
	}
	edges := []func(map[string]val.Value){
		func(ev map[string]val.Value) { ev["price"] = val.Float(math.NaN()) },
		func(ev map[string]val.Value) { ev["price"] = val.Float(math.Copysign(0, -1)) },
		func(ev map[string]val.Value) { ev["price"] = val.Float(0) },
		func(ev map[string]val.Value) { delete(ev, "price"); delete(ev, "qty"); delete(ev, "sym") },
	}
	for k := 0; k < 40; k++ {
		hot := insert(1, edges[k%len(edges)])
		if k == 7 {
			update(hot[0], map[string]val.Value{"qty": val.Int(9000)})
		}
	}
	stats := m.Stats()[0]
	if tbl, _ := db.Table("events"); stats.ResidentSegments != 1 || stats.Segments != 3 || tbl.Len()-stats.ColdRows != 150+70+20+40 {
		t.Fatalf("hot edges: stats %+v, %d rows", stats, tbl.Len())
	}
	return db
}

// hotEdgeQueries is hotEdgeDB's corpus: predicates its hot zone admits
// and ones it excludes, over NaN, −0 and NULL. It has no MIN or MAX of
// price, whose answer over a NaN depends on the order rows are folded
// in.
func hotEdgeQueries() map[string]func() *Query {
	where := func(src string) func() *Query { return func() *Query { return New("events").Where(src) } }
	return map[string]func() *Query{
		"edge-all":         func() *Query { return New("events") },
		"edge-updated":     where("qty >= 7000"),
		"edge-updated-hot": where("qty >= 9000"),
		"edge-beyond":      where("qty > 100000"),
		"edge-below":       where("id < 0"),
		"edge-string":      where("sym = 'ZZZZ'"),
		"edge-string-hot":  where("sym = 'ZZZA'"),
		"edge-between":     where("qty BETWEEN -9000 AND -1000"),
		"edge-nan-range":   where("price > 2000"),
		"edge-zero":        where("price = 0"),
		"edge-neg-zero":    where("price <= 0 AND price >= 0"),
		"edge-null":        where("price IS NULL AND qty IS NULL"),
		"edge-declined":    where("price = 0.5"),
		"edge-group": func() *Query {
			return New("events").Where("qty >= 0").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty")
		},
		"edge-agg": func() *Query {
			return New("events").Agg("n", Count, "").Agg("np", Count, "price").Agg("lo", Min, "qty").Agg("hi", Max, "qty")
		},
	}
}

// The places a table's history can be. Each layout holds the same 930
// logical rows with the same updates and deletes applied.
const (
	layoutSealed = "all sealed"
	layoutTail   = "all in the tail"
	// layoutSplit inserts in 150-row commits against 75-row ranges, so
	// every other cut the background sealer takes ends inside a commit;
	// a run of single-row commits too short to fill a range stays hot.
	layoutSplit = "split mid-commit-group"
	// layoutReleased seals every 150-row commit on its own, then moves
	// every row of the first two segments and four in five of the
	// third to another key and back: none of the three keeps more than
	// a quarter of its rows, so the table gives all three back and
	// serves their rows hot. (A rewrite to the values a row had would
	// leave it in its segment.)
	layoutReleased = "sealed, three segments given back"
	// layoutDeclined moves four rows in five to another key before the
	// one seal and back after it: the table declines the segment, whose
	// rows no longer match, and every row stays hot.
	layoutDeclined = "sealed, the segment declined"
)

func colDBLayout(t *testing.T, layout string) *storage.DB {
	t.Helper()
	const rows, singles = 930, 30
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(colSchema(t)); err != nil {
		t.Fatal(err)
	}
	cfg := columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour} // sealer idle
	if layout == layoutSplit {
		cfg = columnar.Config{SealRows: 75, SealInterval: time.Millisecond}
	}
	m, err := columnar.Attach(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows-singles; {
		txn := db.Begin()
		for end := i + 150; i < end && i < rows-singles; i++ {
			if err := txn.Insert("events", colEvent(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if layout == layoutReleased { // one segment per 150-row commit
			if _, err := m.Compact(""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if layout == layoutSplit {
		// Wait for the sealer to cut every full range before adding the
		// rows that must stay hot.
		for deadline := time.Now().Add(10 * time.Second); m.Stats()[0].PendingRows >= cfg.SealRows; {
			if time.Now().After(deadline) {
				t.Fatal("background sealer never caught up")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := rows - singles; i < rows; i++ {
		if _, err := db.Insert("events", colEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	// rekey moves the rows pick picks by shift on their key.
	rekey := func(pick func(id int64) bool, shift int64) {
		tbl, _ := db.Table("events")
		rowIDs, stored := tbl.ScanRows()
		for k, row := range stored {
			if id, _ := row[0].AsInt(); pick(id) {
				if err := db.UpdateRow("events", rowIDs[k], map[string]val.Value{"id": val.Int(id + shift)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	switch layout {
	case layoutSealed:
		if _, err := m.Compact(""); err != nil {
			t.Fatal(err)
		}
	case layoutReleased:
		if _, err := m.Compact(""); err != nil {
			t.Fatal(err)
		}
		rekey(func(id int64) bool { return id < 300 || (id < 450 && id%5 != 0) }, 1_000_000)
		rekey(func(id int64) bool { return id >= 1_000_000 }, -1_000_000)
	case layoutDeclined:
		rekey(func(id int64) bool { return id%5 != 0 }, 1_000_000)
		if _, err := m.Compact(""); err != nil {
			t.Fatal(err)
		}
		rekey(func(id int64) bool { return id >= 1_000_000 }, -1_000_000)
	}
	stats := m.Stats()[0]
	switch {
	case layout == layoutReleased && (stats.Segments-stats.ResidentSegments != 3 || stats.ReleasedRows != 450 || stats.SealedRows != rows),
		layout == layoutDeclined && (stats.Segments != 1 || stats.ResidentSegments != 0 || stats.ReleasedRows != rows),
		layout == layoutSealed && (stats.PendingRows != 0 || stats.SealedRows != rows),
		layout == layoutTail && (stats.PendingRows != rows || stats.Segments != 0),
		layout == layoutSplit && (stats.PendingRows != singles || stats.SealedRows != rows-singles):
		t.Fatalf("%s: stats %+v", layout, stats)
	}

	// The same rows are rewritten and removed in every layout, wherever
	// their columnar copy happens to be.
	tbl, _ := db.Table("events")
	rowIDs, stored := tbl.ScanRows()
	for k, row := range stored {
		switch id, _ := row[0].AsInt(); {
		case id%10 == 3:
			err = db.UpdateRow("events", rowIDs[k], map[string]val.Value{"price": val.Float(999.5), "sym": val.String("MODX")})
		case id%20 == 7:
			err = db.DeleteRow("events", rowIDs[k])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestColumnarLayouts is hot ≡ sealed ≡ row: the whole corpus, with
// the data all sealed, all hot, split between them by a sealer cutting
// mid-commit-group, sealed with three segments given back, and sealed
// into a segment the table declined, must give the one answer the row
// path gives.
func TestColumnarLayouts(t *testing.T) {
	// A query that fails must fail the same way everywhere: errText is
	// compared in place of the result.
	type outcome struct {
		res     *Result
		errText string
	}
	run := func(q *Query, db *storage.DB) (outcome, Plan) {
		res, plan, err := q.Explain(db)
		if err != nil {
			return outcome{errText: err.Error()}, plan
		}
		return outcome{res: res}, plan
	}
	same := func(label string, got, want outcome) {
		t.Helper()
		if got.errText != want.errText {
			t.Fatalf("%s: error %q, want %q", label, got.errText, want.errText)
		}
		if want.res != nil {
			resultEqual(t, label, got.res, want.res)
		}
	}
	// A predicate with a conjunct that is not an atom (OR, NOT, IN,
	// IS [NOT] NULL, LIKE, arithmetic) has no kernels, and an ordering
	// of time against an int literal must surface an error: those take
	// the row path. Everything else is served columnar, with or without
	// a sealed segment.
	rowOnly := map[string]bool{"where-like": true, "where-arith": true, "group-like": true, "where-time": true,
		"where-or": true, "where-not": true, "where-in": true, "where-null": true, "where-notnull": true}

	want := make(map[string]outcome)
	oracle := colDBLayout(t, layoutSealed)
	for name, mk := range colQueries() {
		want[name], _ = run(mk().NoColumnar(), oracle)
	}
	for _, layout := range []string{layoutSealed, layoutTail, layoutSplit, layoutReleased, layoutDeclined} {
		db := colDBLayout(t, layout)
		for name, mk := range colQueries() {
			label := layout + ", " + name
			got, plan := run(mk(), db)
			if wantAccess := map[bool]string{true: "scan", false: "columnar"}[rowOnly[name]]; plan.Access != wantAccess {
				t.Fatalf("%s: access %q, want %q", label, plan.Access, wantAccess)
			}
			if layout == layoutTail && plan.Segments != 0 {
				t.Fatalf("%s: plan counts %d sealed segments", label, plan.Segments)
			}
			same(label, got, want[name])
			row, _ := run(mk().NoColumnar(), db)
			same(label+" (row path)", row, want[name])
		}
	}
}

// TestModifiedRowsAnyOrder updates and deletes rows that are hot and
// rows that are sealed, with a seal before, between and after, scanning
// and aggregating at every step: the current version of a rewritten row
// comes from the hot rows exactly once, wherever its stale copy sits.
func TestModifiedRowsAnyOrder(t *testing.T) {
	type step func(t *testing.T, db *storage.DB, m *columnar.Manager)
	mutate := func(mod int64) step {
		return func(t *testing.T, db *storage.DB, _ *columnar.Manager) {
			tbl, _ := db.Table("events")
			rowIDs, stored := tbl.ScanRows()
			for k, row := range stored {
				var err error
				switch id, _ := row[0].AsInt(); id % 12 {
				case mod:
					err = db.UpdateRow("events", rowIDs[k], map[string]val.Value{"qty": val.Int(10_000 + id), "sym": val.String("MODX")})
				case mod + 1:
					err = db.DeleteRow("events", rowIDs[k])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	seal := func(t *testing.T, _ *storage.DB, m *columnar.Manager) {
		if _, err := m.Compact(""); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	insert := func(t *testing.T, db *storage.DB, _ *columnar.Manager) {
		rng := rand.New(rand.NewSource(int64(next)))
		for end := next + 200; next < end; next++ {
			if _, err := db.Insert("events", colEvent(rng, next)); err != nil {
				t.Fatal(err)
			}
		}
	}
	orders := map[string][]step{
		"mutate tail, seal, mutate sealed":      {insert, mutate(0), seal, mutate(2)},
		"seal, mutate sealed, insert, mutate":   {insert, seal, mutate(0), insert, mutate(2)},
		"mutate, insert, seal, mutate, seal":    {insert, mutate(0), insert, seal, mutate(2), seal},
		"mutate twice in the tail, seal, again": {insert, mutate(0), mutate(0), seal, mutate(0)},
	}
	queries := []func() *Query{
		func() *Query { return New("events") },
		func() *Query { return New("events").Where("qty >= 10000").Select("id", "qty", "sym") },
		func() *Query { return New("events").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty") },
		func() *Query { return New("events").Agg("n", Count, "").Agg("hi", Max, "qty") },
	}
	for name, steps := range orders {
		next = 0
		db, err := storage.Open(storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(colSchema(t)); err != nil {
			t.Fatal(err)
		}
		m, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			s(t, db, m)
			for qi, mk := range queries {
				col, plan, err := mk().Explain(db)
				if err != nil || plan.Access != "columnar" {
					t.Fatalf("%s, step %d, query %d: access %q, err %v", name, i, qi, plan.Access, err)
				}
				row, err := mk().NoColumnar().Run(db)
				if err != nil {
					t.Fatal(err)
				}
				resultEqual(t, name, col, row)
			}
		}
		m.Close()
		db.Close()
	}
}

// TestColumnarAggErrors pins that type errors surface identically on
// both paths: same failure, same message.
func TestColumnarAggErrors(t *testing.T) {
	db := colDB(t, 200, 10)
	for _, mk := range []func() *Query{
		func() *Query { return New("events").Agg("s", Sum, "sym") },
		func() *Query { return New("events").Agg("a", Avg, "flag") },
		func() *Query { return New("events").GroupBy("flag").Agg("n", Count, "").Agg("s", Sum, "sym") },
		func() *Query { return New("events").GroupBy("sym", "qty").Agg("a", Avg, "ts") },
		func() *Query { return New("events").Where("id > 100").GroupBy("qty").Agg("s", Sum, "blob") },
	} {
		_, colErr := mk().Run(db)
		_, rowErr := mk().NoColumnar().Run(db)
		if colErr == nil || rowErr == nil {
			t.Fatalf("expected errors, got columnar=%v row=%v", colErr, rowErr)
		}
		if colErr.Error() != rowErr.Error() {
			t.Fatalf("error text %q vs %q", colErr, rowErr)
		}
	}
}

// TestColumnarPlan asserts the planner's routing: sealed history is
// served from segments, zone maps prune, and joins or NoColumnar fall
// back to the row scan.
func TestColumnarPlan(t *testing.T) {
	db := colDB(t, 900, 60)

	_, plan, err := New("events").Where("price > 10").Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "columnar" || plan.Segments == 0 {
		t.Fatalf("plan = %+v, want columnar access over >0 segments", plan)
	}

	// "sym = 'ZZZZ'" sorts above every stored symbol, so the string
	// zone maps prune each segment without decoding it.
	_, plan, err = New("events").Where("sym = 'ZZZZ'").Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "columnar" || plan.SegmentsPruned != plan.Segments {
		t.Fatalf("plan = %+v, want all %d segments pruned", plan, plan.Segments)
	}

	_, plan, err = New("events").NoColumnar().Explain(db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != "scan" {
		t.Fatalf("NoColumnar plan access = %q, want scan", plan.Access)
	}

	// The dbmix read shapes: batch zones leave a 2,000-row seq range at
	// most three batches of each 8-batch segment it enters, and the
	// aggregate over seq < 4096 the first half of the first segment.
	trades, m, err := newTradesDB(100_000, 8192, 8000)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { m.Close(); trades.Close() }()
	for _, lo := range []int{0, 1000, 8000, 8191, 40_000, 96_304} {
		src := fmt.Sprintf("seq >= %d AND seq < %d AND qty >= 900", lo, lo+2000)
		res, plan, err := New("trades").Where(src).Explain(trades)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("%s: %d rows, err %v", src, len(res.Rows), err)
		}
		if plan.Batches == 0 || plan.Batches%8 != 0 || 8*plan.BatchesPruned < 5*plan.Batches {
			t.Errorf("%s: plan %+v, want at least 5 of every 8 batches pruned", src, plan)
		}
	}
	_, plan, err = New("trades").Where("seq < 4096").GroupBy("sym").Agg("total", Sum, "qty").Agg("n", Count, "").Explain(trades)
	if err != nil || plan.Batches != 8 || plan.BatchesPruned < 4 {
		t.Fatalf("grouped aggregate: plan %+v, err %v, want 4 of its segment's 8 batches pruned", plan, err)
	}
}

// TestColumnarSealMidTransaction seals while one large transaction's
// rows dominate the pending batch; a seal must never split a commit,
// and query results must stay identical across the seal.
func TestColumnarSealMidTransaction(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, err := storage.NewSchema("events", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString},
		{Name: "qty", Kind: val.KindInt},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	txn := db.Begin()
	for i := 0; i < 150; i++ {
		if err := txn.Insert("events", map[string]val.Value{
			"id": val.Int(int64(i)), "sym": val.String(colSyms[i%len(colSyms)]), "qty": val.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("events", map[string]val.Value{
		"id": val.Int(1000), "sym": val.String("TAIL"), "qty": val.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(""); err != nil {
		t.Fatal(err)
	}

	mkQ := func() *Query { return New("events").Where("qty >= 0").OrderBy("id", Asc) }
	col, err := mkQ().Run(db)
	if err != nil {
		t.Fatal(err)
	}
	row, err := mkQ().NoColumnar().Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Rows) != 151 {
		t.Fatalf("columnar rows = %d, want 151", len(col.Rows))
	}
	resultEqual(t, "seal-mid-txn", col, row)
}

// TestColumnarScanDuringRelease races scans against the residency rule.
// A writer commits groups of four rows and, in the same transaction,
// deletes the group that has aged out of a window, so behind it runs
// go back to the table sparse while the background sealer cuts new
// ones; scans that took their view before a release keep reading the
// segments it dropped. Whatever they overlap, they see whole
// commits — a multiple of four rows, groups intact, every value of every
// row there — and never a segment without its body.
func TestColumnarScanDuringRelease(t *testing.T) {
	const groups, window = 1500, 40
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(colSchema(t)); err != nil {
		t.Fatal(err)
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	done := make(chan struct{})
	var columnarScans atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, plan, err := New("events").Explain(db)
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Access == "columnar" {
					columnarScans.Add(1)
				}
				perGroup := make(map[int64]int)
				for _, row := range res.Rows {
					id, _ := row[0].AsInt()
					perGroup[id/4]++
					if ts, ok := row[1].AsTime(); !ok || ts.Unix() != 1700000000+id {
						t.Errorf("row %d: ts %v", id, row[1])
						return
					}
				}
				for g, n := range perGroup {
					if n != 4 {
						t.Errorf("group %d seen with %d of its 4 rows (%d rows in all, access %s)", g, n, len(res.Rows), plan.Access)
						return
					}
				}
				if len(perGroup) > window+1 {
					t.Errorf("%d groups visible, the window is %d", len(perGroup), window)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(11))
	for g := 0; g < groups; g++ {
		txn := db.Begin()
		for k := 0; k < 4; k++ {
			if err := txn.Insert("events", colEvent(rng, 4*g+k)); err != nil {
				t.Fatal(err)
			}
		}
		// Row ids are handed out in insert order from 1.
		for k := 0; g >= window && k < 4; k++ {
			if err := txn.Delete("events", storage.RowID(4*(g-window)+k+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if columnarScans.Load() == 0 {
		t.Error("no scan was served from the columnar history")
	}
	if _, err := m.Compact(""); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats()[0]; s.SealedRows != 4*groups || s.ResidentSegments > 4*window/64+2 || s.Segments < groups/64 {
		t.Errorf("after the churn: %+v", s)
	}
}

// NoColumnar forces row-at-a-time execution even when the table has
// columnar history. Used by benchmarks and the row-vs-columnar
// differential tests; results are identical either way.
func (q *Query) NoColumnar() *Query {
	q.noColumnar = true
	return q
}

package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/val"
	"eventdb/internal/wal"
)

func packedSchema(t testing.TB) *Schema {
	s, err := NewSchema("p", []Column{
		{Name: "k", Kind: val.KindInt, NotNull: true},
		{Name: "s", Kind: val.KindString},
		{Name: "b", Kind: val.KindBytes},
		{Name: "f", Kind: val.KindFloat},
		{Name: "ts", Kind: val.KindTime},
		{Name: "ok", Kind: val.KindBool},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !val.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPackedRowStore holds the packed row store to a map-of-rows model
// through inserts, updates, deletes, rolled-back and refused
// transactions, a reopen from the WAL and a replica fed through the
// replication apply path: Get, GetByPK, Scan, ScanRows and an index
// backfilled from packed rows all return what the model holds. A row
// read before an UPDATE keeps its old values, and a caller modifying a
// returned Row does not modify the table.
func TestPackedRowStore(t *testing.T) {
	const seed = 32
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if err := db.CreateTable(packedSchema(t)); err != nil {
		t.Fatal(err)
	}
	model := map[RowID]Row{}
	randRow := func(k int64) Row {
		r := Row{val.Int(k), val.Null, val.Null, val.Null, val.Null, val.Null}
		if rng.Intn(5) > 0 {
			r[1] = val.String(fmt.Sprintf("s%d-%s", rng.Intn(50), "é\xff"[:rng.Intn(4)]))
		}
		if rng.Intn(5) > 0 {
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			r[2] = val.Bytes(b)
		}
		if rng.Intn(5) > 0 {
			r[3] = val.Float(rng.NormFloat64() * 1e6)
		}
		if rng.Intn(5) > 0 {
			r[4] = val.Time(time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)))
		}
		if rng.Intn(5) > 0 {
			r[5] = val.Bool(rng.Intn(2) == 0)
		}
		return r
	}
	pick := func() RowID { // reproducible from the seed, unlike map order
		ids := make([]RowID, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids[rng.Intn(len(ids))]
	}
	check := func(d *DB, when string) {
		t.Helper()
		tbl, _ := d.Table("p")
		if tbl.Len() != len(model) {
			t.Fatalf("seed %d, %s: %d rows, model has %d", seed, when, tbl.Len(), len(model))
		}
		for id, want := range model {
			got, ok := tbl.Get(id)
			if !ok || !rowsEqual(got, want) {
				t.Fatalf("seed %d, %s: Get(%d) = %v, %v; want %v", seed, when, id, got, ok, want)
			}
			got, gid, ok := tbl.GetByPK(want[0])
			if !ok || gid != id || !rowsEqual(got, want) {
				t.Fatalf("seed %d, %s: GetByPK(%v) = %v, %d, %v; want %v, %d", seed, when, want[0], got, gid, ok, want, id)
			}
		}
		scanned := 0
		tbl.Scan(func(id RowID, r Row) bool {
			scanned++
			if !rowsEqual(r, model[id]) {
				t.Fatalf("seed %d, %s: Scan row %d = %v, want %v", seed, when, id, r, model[id])
			}
			return true
		})
		ids, rows := tbl.ScanRows()
		if scanned != len(model) || len(ids) != len(model) {
			t.Fatalf("seed %d, %s: Scan saw %d rows, ScanRows %d; model has %d", seed, when, scanned, len(ids), len(model))
		}
		for i, id := range ids {
			if !rowsEqual(rows[i], model[id]) {
				t.Fatalf("seed %d, %s: ScanRows row %d = %v, want %v", seed, when, id, rows[i], model[id])
			}
		}
		isTrue := func(r Row) bool { b, _ := r[5].AsBool(); return b }
		ids, rows, err := tbl.ScanRowsWhere(func(r Row) (bool, error) { return isTrue(r), nil })
		want := 0
		for _, r := range model {
			if isTrue(r) {
				want++
			}
		}
		if err != nil || len(ids) != want || len(rows) != want {
			t.Fatalf("seed %d, %s: ScanRowsWhere kept %d ids, %d rows, %v; want %d", seed, when, len(ids), len(rows), err, want)
		}
		for i, id := range ids {
			if !rowsEqual(rows[i], model[id]) || !isTrue(rows[i]) {
				t.Fatalf("seed %d, %s: ScanRowsWhere row %d = %v, want %v", seed, when, id, rows[i], model[id])
			}
		}
	}

	nextK := int64(0)
	for op := 0; op < 600; op++ {
		switch n := rng.Intn(10); {
		case n < 4 || len(model) == 0: // insert
			r := randRow(nextK)
			nextK++
			id, err := db.InsertRow("p", r)
			if err != nil {
				t.Fatal(err)
			}
			model[id] = r
		case n < 7: // update, holding the row read before it
			id := pick()
			before, _ := db.tables["p"].Get(id)
			old := model[id]
			k, _ := old[0].AsInt()
			nr := randRow(k)
			if err := db.UpdateRow("p", id, map[string]val.Value{
				"s": nr[1], "b": nr[2], "f": nr[3], "ts": nr[4], "ok": nr[5],
			}); err != nil {
				t.Fatal(err)
			}
			model[id] = nr
			if !rowsEqual(before, old) {
				t.Fatalf("seed %d: a row read before UPDATE changed: %v, want %v", seed, before, old)
			}
		case n < 8: // delete
			id := pick()
			if err := db.DeleteRow("p", id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		case n < 9: // rolled back, then refused: neither leaves a trace
			id := pick()
			txn := db.Begin()
			txn.InsertRow("p", randRow(nextK))
			txn.Update("p", id, map[string]val.Value{"s": val.String("rolled back")})
			txn.Rollback()
			txn = db.Begin()
			txn.Update("p", id, map[string]val.Value{"s": val.String("refused")})
			k, _ := model[id][0].AsInt()
			txn.InsertRow("p", randRow(k)) // duplicate key
			if _, err := txn.Commit(); err == nil {
				t.Fatal("duplicate primary key committed")
			}
		default: // a caller modifying what it was handed
			id := pick()
			r, _ := db.tables["p"].Get(id)
			r[1], r[3] = val.String("scribbled"), val.Int(-1)
			_, rows := db.tables["p"].ScanRows()
			for _, r := range rows {
				r[0] = val.Null
			}
		}
		if op%100 == 99 {
			check(db, fmt.Sprintf("after op %d", op))
		}
	}
	check(db, "end")

	// A replica fed the leader's WAL record by record (applyChanges).
	replica, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := db.WAL().Replay(0, func(r wal.Record) error { return replica.ApplyReplicated(r) }); err != nil {
		t.Fatal(err)
	}
	check(replica, "replica")

	// A reopen replays the same WAL into packed rows.
	db.Close()
	if db, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	check(db, "reopened")
}

// TestAllocsTableGet pins a point read at one allocation, the Row: the
// string and bytes values alias the stored image instead of copying it.
func TestAllocsTableGet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	db := openVolatile(t)
	if err := db.CreateTable(packedSchema(t)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 226)
	id, err := db.InsertRow("p", Row{val.Int(1), val.String("a string column"), val.Bytes(payload),
		val.Float(1.5), val.Time(time.Unix(1, 2)), val.Bool(true)})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("p")
	allocs := testing.AllocsPerRun(1000, func() {
		if r, ok := tbl.Get(id); !ok || len(r) != 6 {
			t.Fatal("row missing")
		}
	})
	if allocs != 1 {
		t.Errorf("Get allocates %.1f times, want 1", allocs)
	}
}

// BenchmarkRowStore reports the live heap a table keeps per row for
// 100 k rows shaped like the dbmix workload's (seq, ts, sym, qty, px):
// rows-B/row with no primary key, pk-B/row what the primary-key index
// adds, and the ns/op of Get on one of them.
func BenchmarkRowStore(b *testing.B) {
	rowStoreOnce.Do(func() {
		before := liveHeap()
		plain := fillRowStore(b, false)
		rows := liveHeap() - before
		keyed := fillRowStore(b, true)
		total := liveHeap() - before - rows
		runtime.KeepAlive(plain)
		rowStoreHeap = [2]float64{float64(rows) / rowStoreRows, float64(total-rows) / rowStoreRows}
		rowStoreDB = keyed
	})
	tbl, _ := rowStoreDB.Table("trades")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Get(RowID(i%rowStoreRows + 1)); !ok {
			b.Fatal("row missing")
		}
	}
	b.ReportMetric(rowStoreHeap[0], "rows-B/row")
	b.ReportMetric(rowStoreHeap[1], "pk-B/row")
}

const rowStoreRows = 100_000

var (
	rowStoreOnce sync.Once
	rowStoreDB   *DB
	rowStoreHeap [2]float64
)

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func fillRowStore(b *testing.B, withPK bool) *DB {
	var pk []string
	if withPK {
		pk = []string{"seq"}
	}
	s, err := NewSchema("trades", []Column{
		{Name: "seq", Kind: val.KindInt}, {Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString}, {Name: "qty", Kind: val.KindInt},
		{Name: "px", Kind: val.KindInt},
	}, pk...)
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		b.Fatal(err)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	for start := 0; start < rowStoreRows; start += 1000 {
		txn := db.Begin()
		for seq := start; seq < start+1000; seq++ {
			// Each row decoded from its own request, as on the wire.
			txn.InsertRow("trades", Row{val.Int(int64(seq)), val.Time(epoch.Add(time.Duration(seq) * time.Second)),
				val.String(fmt.Sprintf("S%02d", rng.Intn(50))), val.Int(rng.Int63n(1000)), val.Int(rng.Int63n(10000))})
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// TestAllocsOneOpCommit pins what a one-row transaction on a
// primary-key table allocates: its primary key is encoded into a stack
// buffer, and it fills none of the batch's uniqueness maps and builds no
// table-name set, which only a transaction of more than one op needs.
func TestAllocsOneOpCommit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	db := openVolatile(t)
	if err := db.CreateTable(packedSchema(t)); err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	key := int64(0)
	row := func() Row {
		key++
		return Row{val.Int(key), val.String("s"), val.Bytes(nil), val.Float(1), val.Time(time.Unix(1, 0)), val.Bool(true)}
	}
	ids := make([]RowID, 0, runs+1)
	for i := 0; i <= runs; i++ {
		id, err := db.InsertRow("p", row())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	del := testing.AllocsPerRun(runs, func() {
		if err := db.DeleteRow("p", ids[len(ids)-1]); err != nil {
			t.Fatal(err)
		}
		ids = ids[:len(ids)-1]
	})
	rows := make([]Row, runs+1)
	for i := range rows {
		rows[i] = row()
	}
	ins := testing.AllocsPerRun(runs, func() {
		if _, err := db.InsertRow("p", rows[0]); err != nil {
			t.Fatal(err)
		}
		rows = rows[1:]
	})
	// Before the stack key and the one-op path: 16 and 20.
	if del > 10 || ins > 14 {
		t.Errorf("a one-row DeleteRow allocates %.0f times (want at most 10), InsertRow %.0f (want at most 14)", del, ins)
	}
}

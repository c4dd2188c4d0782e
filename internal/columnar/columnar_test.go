package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"eventdb/internal/expr"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// eventsSchema covers every column kind, including a nullable column.
func eventsSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema("events", []storage.Column{
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
	return s
}

var testSyms = []string{"ACME", "BETA", "GAMA", "DELT", "EPSI"}

// randEvent builds row i with deterministic pseudo-random values;
// roughly one in eight values per nullable column is null.
func randEvent(rng *rand.Rand, i int) map[string]val.Value {
	m := map[string]val.Value{
		"id": val.Int(int64(i)),
		"ts": val.Time(time.Unix(1700000000+int64(i), 0).UTC()),
	}
	if rng.Intn(8) != 0 {
		m["sym"] = val.String(testSyms[rng.Intn(len(testSyms))])
	}
	if rng.Intn(8) != 0 {
		m["price"] = val.Float(float64(rng.Intn(10000)) / 100)
	}
	if rng.Intn(8) != 0 {
		m["qty"] = val.Int(int64(rng.Intn(1000) - 500))
	}
	if rng.Intn(8) != 0 {
		m["flag"] = val.Bool(rng.Intn(2) == 0)
	}
	if rng.Intn(8) != 0 {
		m["blob"] = val.Bytes([]byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	return m
}

func fillEvents(t *testing.T, db *storage.DB, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if _, err := db.Insert("events", randEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
}

func openVolatile(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(eventsSchema(t)); err != nil {
		t.Fatal(err)
	}
	return db
}

func attach(t *testing.T, db *storage.DB, cfg Config) *Manager {
	t.Helper()
	m, err := Attach(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// segRows re-materializes every live sealed row of a table, keyed by
// RowID.
func segRows(t *testing.T, st *TableStore) map[storage.RowID]storage.Row {
	t.Helper()
	out := make(map[storage.RowID]storage.Row)
	snap := st.Snapshot()
	if snap == nil {
		return out
	}
	for _, sv := range snap.Segs {
		r := sv.Seg.NewReader(nil)
		var b Batch
		for r.Next(&b) {
			for i := 0; i < b.Len; i++ {
				if sv.IsDead(b.Start + i) {
					continue
				}
				row := make(storage.Row, len(snap.Schema.Columns))
				b.MaterializeRow(row, i)
				out[sv.Seg.RowID(b.Start+i)] = row
			}
		}
	}
	return out
}

func rowsEqual(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !val.Equal(a[i], b[i]) && !(a[i].IsNull() && b[i].IsNull()) {
			return false
		}
	}
	return true
}

func TestSealRoundtripAllKinds(t *testing.T) {
	db := openVolatile(t)
	fillEvents(t, db, 500, 1)
	m := attach(t, db, Config{SealRows: 64})
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	st := m.Table("events")
	if st == nil {
		t.Fatal("no table store")
	}
	got := segRows(t, st)
	tbl, _ := db.Table("events")
	ids, rows := tbl.ScanRows()
	if len(got) != len(ids) {
		t.Fatalf("sealed %d rows, table has %d", len(got), len(ids))
	}
	for i, id := range ids {
		sr, ok := got[id]
		if !ok {
			t.Fatalf("row %d missing from segments", id)
		}
		if !rowsEqual(sr, rows[i]) {
			t.Fatalf("row %d mismatch:\nseg %v\ntbl %v", id, sr, rows[i])
		}
	}
	if st.Snapshot().SealedRows() != 500 {
		t.Fatalf("sealed rows = %d", st.Snapshot().SealedRows())
	}
}

func TestZoneMaps(t *testing.T) {
	schema := eventsSchema(t)
	rows := []storage.Row{
		{val.Int(1), val.Null, val.String("b"), val.Float(2.5), val.Int(-3), val.Bool(true), val.Null},
		{val.Int(2), val.Null, val.Null, val.Float(7.25), val.Int(9), val.Bool(false), val.Null},
		{val.Int(3), val.Null, val.String("a"), val.Null, val.Int(4), val.Null, val.Null},
	}
	seg, err := buildSegment("events", schema, []storage.RowID{1, 2, 3}, []uint64{1, 2, 3}, rows)
	if err != nil {
		t.Fatal(err)
	}
	z := seg.Zone(schema.ColIndex("qty"))
	if !z.OK || !val.Equal(z.Min, val.Int(-3)) || !val.Equal(z.Max, val.Int(9)) {
		t.Fatalf("qty zone = %+v", z)
	}
	z = seg.Zone(schema.ColIndex("sym"))
	if !z.OK || !val.Equal(z.Min, val.String("a")) || !val.Equal(z.Max, val.String("b")) || z.Nulls != 1 {
		t.Fatalf("sym zone = %+v", z)
	}
	z = seg.Zone(schema.ColIndex("ts"))
	if z.OK || z.Nulls != 3 {
		t.Fatalf("all-null ts zone = %+v", z)
	}

	// Zone pruning: a conjunct that cannot hold in this segment
	// excludes it; ones that can hold keep it.
	probe := func(src string) bool {
		p, err := expr.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return seg.CanMatch(p.EqPreds, p.RangePreds)
	}
	if probe("qty > 9") {
		t.Error("qty > 9 should prune")
	}
	if !probe("qty >= 9") {
		t.Error("qty >= 9 should not prune")
	}
	if probe("sym = 'zzz'") {
		t.Error("sym = 'zzz' should prune")
	}
	if !probe("sym = 'a'") {
		t.Error("sym = 'a' should not prune")
	}
	if probe("ts = 1") {
		t.Error("value predicate on all-null column should prune")
	}
	if probe("qty BETWEEN 100 AND 200") {
		t.Error("out-of-range BETWEEN should prune")
	}
}

// TestBatchZonesPrune: a reader told a conjunct skips exactly the
// batches whose zones exclude it and still yields every row that
// satisfies it — here a time range, which the query language has no
// literal for, ending on a batch boundary.
func TestBatchZonesPrune(t *testing.T) {
	schema := eventsSchema(t)
	rng := rand.New(rand.NewSource(23))
	n := 4*BatchSize + 100
	rows, ids, lsns := make([]storage.Row, n), make([]storage.RowID, n), make([]uint64, n)
	for i := range rows {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], ids[i], lsns[i] = r, storage.RowID(i+1), uint64(i+1)
	}
	seg, err := buildSegment("events", schema, ids, lsns, rows)
	if err != nil {
		t.Fatal(err)
	}
	ts := func(i int) val.Value { return val.Time(time.Unix(1700000000+int64(i), 0).UTC()) }
	rd := seg.NewReader(nil)
	rd.Prune(nil, []expr.RangePred{{Field: "ts", Lo: ts(1100), Hi: ts(2*BatchSize - 1)}})
	var b Batch
	got := 0
	for rd.Next(&b) {
		for i := 0; i < b.Len; i++ {
			if at, _ := b.Vecs[1].Value(i).AsTime(); at.Unix()-1700000000 >= 1100 && at.Unix()-1700000000 < 2*BatchSize {
				got++
			}
		}
	}
	if entered, pruned := rd.Batches(); entered != 5 || pruned != 4 || got != 2*BatchSize-1100 {
		t.Fatalf("entered %d batches, pruned %d, found %d rows in range; want 5, 4, %d", entered, pruned, got, 2*BatchSize-1100)
	}
}

func TestNaNPoisonsZone(t *testing.T) {
	schema := eventsSchema(t)
	rows := []storage.Row{
		{val.Int(1), val.Null, val.Null, val.Float(mathNaN()), val.Null, val.Null, val.Null},
		{val.Int(2), val.Null, val.Null, val.Float(1), val.Null, val.Null, val.Null},
	}
	seg, err := buildSegment("events", schema, []storage.RowID{1, 2}, []uint64{1, 2}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Zone(schema.ColIndex("price")).OK {
		t.Fatal("NaN must invalidate the zone")
	}
	p, err := expr.Compile("price > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !seg.CanMatch(p.EqPreds, p.RangePreds) {
		t.Fatal("broken zone must never prune")
	}
}

func mathNaN() float64 {
	var z float64
	return z / z
}

// filterExprs is the differential corpus: everything the kernel
// compiler claims to support, plus shapes that must fall back.
var filterExprs = []struct {
	src     string
	compile bool // CompileFilter must accept (true) or reject (false)
}{
	{"qty > 100", true},
	{"qty >= -500", true},
	{"qty < 0", true},
	{"qty <= 0", true},
	{"qty = 42", true},
	{"qty != 42", true},
	{"price > 50", true},
	{"price <= 12.5", true},
	{"qty > 12.5", true},
	{"price = 31.41", true},
	{"sym = 'ACME'", true},
	{"sym != 'ACME'", true},
	{"sym > 'BETA'", true},
	{"sym <= 'DELT'", true},
	{"flag", true},
	{"NOT flag", true},
	{"flag = true", true},
	{"sym IS NULL", true},
	{"price IS NOT NULL", true},
	{"qty BETWEEN -100 AND 100", true},
	{"qty NOT BETWEEN 0 AND 250", true},
	{"sym IN ('ACME', 'GAMA')", true},
	{"sym NOT IN ('ACME', 'BETA', 'nosuch')", true},
	{"qty IN (1, 2, 3, 250)", true},
	{"qty IN (1, 2.0, 3)", true},
	{"sym = 'ACME' AND qty > 0", true},
	{"sym = 'ACME' OR price > 90", true},
	{"NOT (sym = 'ACME' AND qty > 0)", true},
	{"qty > 0 AND price > 0 AND flag", true},
	{"missing = 1", true},     // unknown field → NULL
	{"missing IS NULL", true}, // unknown field in IS NULL
	{"sym = 3", true},         // incomparable eq → never true
	{"sym != 3", true},        // incomparable ne → true for non-null
	{"1 = 1", true},           // const-folds
	{"qty + 1 > 2", false},    // arithmetic → row path
	{"sym LIKE 'AC%'", false}, // LIKE → row path
	{"sym > 3", false},        // incomparable ordering errors row-side
	{"qty = price", false},    // field vs field → row path
}

func TestFilterDifferential(t *testing.T) {
	schema := eventsSchema(t)
	rng := rand.New(rand.NewSource(7))
	n := 3000
	rows := make([]storage.Row, n)
	ids := make([]storage.RowID, n)
	lsns := make([]uint64, n)
	for i := 0; i < n; i++ {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = r
		ids[i] = storage.RowID(i + 1)
		lsns[i] = uint64(i + 1)
	}
	seg, err := buildSegment("events", schema, ids, lsns, rows)
	if err != nil {
		t.Fatal(err)
	}

	mask := make([]int8, BatchSize)
	for _, tc := range filterExprs {
		pred, err := expr.Compile(tc.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tc.src, err)
		}
		prog, ok := CompileFilter(pred.Root, schema)
		if ok != tc.compile {
			t.Errorf("CompileFilter(%q) ok = %v, want %v", tc.src, ok, tc.compile)
			continue
		}
		if !ok {
			continue
		}
		rd := seg.NewReader(prog.NeedCols())
		var b Batch
		for rd.Next(&b) {
			prog.Eval(&b, mask)
			for i := 0; i < b.Len; i++ {
				row := rows[b.Start+i]
				want, err := pred.Match(storage.RowResolver{Schema: schema, Row: row})
				if err != nil {
					t.Fatalf("%q row %d: row-path error %v", tc.src, b.Start+i, err)
				}
				got := mask[i] == 1
				if got != want {
					t.Fatalf("%q row %d (%v): columnar=%v row=%v",
						tc.src, b.Start+i, row, got, want)
				}
			}
		}
	}
}

func TestDeadMarkingAndModified(t *testing.T) {
	db := openVolatile(t)
	fillEvents(t, db, 200, 3)
	m := attach(t, db, Config{SealRows: 64})
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("events")
	ids, _ := tbl.ScanRows()
	upID, delID := ids[10], ids[20]
	if err := db.UpdateRow("events", upID, map[string]val.Value{"qty": val.Int(9999)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteRow("events", delID); err != nil {
		t.Fatal(err)
	}
	st := m.Table("events")
	snap := st.Snapshot()
	if !slices.Contains(snap.Modified, upID) {
		t.Error("updated sealed row must read from the row store")
	}
	if slices.Contains(snap.Modified, delID) {
		t.Error("deleted row is not in the row store")
	}
	live := segRows(t, st)
	if _, ok := live[upID]; ok {
		t.Error("updated row still live in segments")
	}
	if _, ok := live[delID]; ok {
		t.Error("deleted row still live in segments")
	}
	// 200 sealed inserts remain sealed history; 2 are dead.
	stats := st.Stats()
	if stats.SealedRows != 200 || stats.DeadRows != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestWholeCommitSealing(t *testing.T) {
	db := openVolatile(t)
	m := attach(t, db, Config{SealRows: 64})
	// One transaction with 100 inserts: a seal triggered at 64 pending
	// rows must extend the cut to the commit boundary.
	txn := db.Begin()
	for i := 0; i < 100; i++ {
		if err := txn.Insert("events", map[string]val.Value{"id": val.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 120; i++ {
		if _, err := db.Insert("events", map[string]val.Value{"id": val.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	st := m.Table("events")
	snap := st.Snapshot()
	first := snap.Segs[0].Seg
	if first.Rows() < 100 {
		t.Fatalf("first segment has %d rows; the 100-row commit was split", first.Rows())
	}
	if snap.SealedRows() != 120 {
		t.Fatalf("sealed rows = %d", snap.SealedRows())
	}
}

func TestMineInsertsMatchesHistory(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(eventsSchema(t)); err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, 150, 5)
	tbl, _ := db.Table("events")
	ids, _ := tbl.ScanRows()
	// Update and delete a few rows so the history includes superseded
	// inserts — MineInserts must still replay the original inserts.
	db.UpdateRow("events", ids[3], map[string]val.Value{"qty": val.Int(1)})
	db.DeleteRow("events", ids[4])

	m := attach(t, db, Config{SealRows: 64, Dir: filepath.Join(dir, "segments")})
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	var mineIDs []storage.RowID
	next, err := m.MineInserts("events", 0, func(lsn uint64, c *storage.Change) error {
		lsns = append(lsns, lsn)
		mineIDs = append(mineIDs, c.ID)
		if c.Kind != storage.Insert || c.Table != "events" || len(c.New) == 0 {
			t.Fatalf("bad change: %+v", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mineIDs) != 150 {
		t.Fatalf("mined %d inserts, want 150 (deletes must not erase history)", len(mineIDs))
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] < lsns[i-1] {
			t.Fatal("mined LSNs out of order")
		}
	}
	if next != lsns[len(lsns)-1]+1 {
		t.Fatalf("next = %d, want %d", next, lsns[len(lsns)-1]+1)
	}
	// Mining from the middle yields a suffix.
	mid := lsns[75]
	count := 0
	if _, err := m.MineInserts("events", mid, func(lsn uint64, c *storage.Change) error {
		if lsn < mid {
			t.Fatalf("lsn %d < from %d", lsn, mid)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 150-75 {
		t.Fatalf("suffix mine = %d rows, want %d", count, 150-75)
	}
}

func TestPersistReloadAndCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	open := func() *storage.DB {
		db, err := storage.Open(storage.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if err := db.CreateTable(eventsSchema(t)); err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, 300, 9)
	m, err := Attach(db, Config{SealRows: 64, Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	want := segRows(t, m.Table("events"))
	segsBefore := len(m.Table("events").Snapshot().Segs)
	m.Close()
	db.Close()

	files, _ := filepath.Glob(filepath.Join(segDir, "*.seg"))
	if len(files) != segsBefore {
		t.Fatalf("%d segment files, want %d", len(files), segsBefore)
	}

	// Clean reload: segments come back from files.
	db = open()
	m, err = Attach(db, Config{SealRows: 64, Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Table("events").Snapshot().Segs); got != segsBefore {
		t.Fatalf("reloaded %d segments, want %d", got, segsBefore)
	}
	got := segRows(t, m.Table("events"))
	if len(got) != len(want) {
		t.Fatalf("reloaded %d rows, want %d", len(got), len(want))
	}
	for id, row := range want {
		if !rowsEqual(got[id], row) {
			t.Fatalf("row %d differs after reload", id)
		}
	}
	m.Close()
	db.Close()

	// Crash simulation: corrupt one segment file and leave a partial
	// temp file. Both must be discarded and the rows rebuilt from the
	// WAL.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(segDir, "ffff-0000000000000001.seg.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	db = open()
	m, err = Attach(db, Config{SealRows: 64, Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer m.Close()
	if m.Err() == nil {
		t.Error("corrupt segment should surface via Err()")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt segment file should be deleted")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temp file should be deleted")
	}
	// The corrupted segment's rows (and any dropped suffix) are pending
	// again; force a seal and verify full history is intact.
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	got = segRows(t, m.Table("events"))
	if len(got) != len(want) {
		t.Fatalf("rebuilt %d rows, want %d", len(got), len(want))
	}
	for id, row := range want {
		if !rowsEqual(got[id], row) {
			t.Fatalf("row %d differs after rebuild", id)
		}
	}
}

func TestVolatileBootstrapSnapshots(t *testing.T) {
	db := openVolatile(t)
	fillEvents(t, db, 100, 11)
	m := attach(t, db, Config{SealRows: 64})
	tbl, _ := db.Table("events")
	if m.Observed() != db.Seq() || tbl.LastCommit() != db.Seq() {
		t.Fatalf("after attach: observed %d, table's last commit %d, database at %d", m.Observed(), tbl.LastCommit(), db.Seq())
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	if n := m.Table("events").Snapshot().SealedRows(); n != 100 {
		t.Fatalf("sealed %d rows from pre-attach state, want 100", n)
	}
	// Post-attach inserts keep flowing through the hook.
	rng := rand.New(rand.NewSource(12))
	for i := 100; i < 150; i++ {
		if _, err := db.Insert("events", randEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Observed() != db.Seq() || tbl.LastCommit() != db.Seq() {
		t.Fatalf("after inserts: observed %d, table's last commit %d, database at %d", m.Observed(), tbl.LastCommit(), db.Seq())
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	if n := m.Table("events").Snapshot().SealedRows(); n != 150 {
		t.Fatalf("sealed %d rows, want 150", n)
	}
}

func TestBackgroundSealer(t *testing.T) {
	db := openVolatile(t)
	m := attach(t, db, Config{SealRows: 64, SealInterval: 10 * time.Millisecond})
	fillEvents(t, db, 200, 13)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Table("events")
		if st != nil {
			if snap := st.Snapshot(); snap != nil && snap.SealedRows() >= 64 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("sealer never sealed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatsAndCompactAll(t *testing.T) {
	db := openVolatile(t)
	fillEvents(t, db, 100, 15)
	m := attach(t, db, Config{SealRows: 64})
	stats, err := m.Compact("")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Table != "events" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].SealedRows != 100 || stats[0].Segments == 0 || stats[0].MemBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := m.Stats(); len(got) != 1 || got[0].PendingRows != 0 {
		t.Fatalf("Stats() = %+v", got)
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	db := openVolatile(t)
	attach(t, db, Config{})
	if _, err := Attach(db, Config{}); err == nil {
		t.Fatal("second attach must fail")
	}
}

// TestAllocsFilterScan guards the vectorized scan's hot loop: once the
// reader and mask exist, zone probes and per-batch filter evaluation
// must not allocate at all — that is the difference between a columnar
// scan and a boxed row scan.
func TestAllocsFilterScan(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	schema := eventsSchema(t)
	rng := rand.New(rand.NewSource(21))
	n := 4 * BatchSize
	rows := make([]storage.Row, n)
	ids := make([]storage.RowID, n)
	lsns := make([]uint64, n)
	for i := 0; i < n; i++ {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = r
		ids[i] = storage.RowID(i + 1)
		lsns[i] = uint64(i + 1)
	}
	seg, err := buildSegment("events", schema, ids, lsns, rows)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.Compile("sym = 'ACME' AND qty > 0 AND price IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := CompileFilter(pred.Root, schema)
	if !ok {
		t.Fatal("filter should compile")
	}

	if a := testing.AllocsPerRun(100, func() {
		if !seg.CanMatch(pred.EqPreds, pred.RangePreds) {
			t.Fatal("segment should survive the zone probe")
		}
	}); a != 0 {
		t.Errorf("zone probe allocates %v/op, want 0", a)
	}

	rd := seg.NewReader(prog.NeedCols())
	mask := make([]int8, BatchSize)
	var b Batch
	if !rd.Next(&b) {
		t.Fatal("no batch")
	}
	// Warm up per-segment caches (string dictionary binding).
	prog.Eval(&b, mask)
	if a := testing.AllocsPerRun(100, func() {
		prog.Eval(&b, mask)
	}); a != 0 {
		t.Errorf("filter eval allocates %v/batch, want 0", a)
	}

	// A full-segment decode pass reuses reader buffers: the steady
	// state is allocation-free per batch.
	rd2 := seg.NewReader(prog.NeedCols())
	var b2 Batch
	rd2.Next(&b2)
	if a := testing.AllocsPerRun(2, func() {
		for rd2.Next(&b2) {
			prog.Eval(&b2, mask)
		}
	}); a != 0 {
		t.Errorf("segment scan allocates %v/pass, want 0", a)
	}
}

// FuzzIntColumn round-trips int and time vectors through encodeInts:
// every batch read whole, and again at a random selection into buffers
// an earlier batch left dirty, gives back the input at the rows read,
// and each batch's zone is exactly the min, max and null count of its
// rows. Each input byte picks a row's shape — NULL, an int64 extreme, a
// repeat of the row before (constant batches), or a value of some bit
// width — cycling over the rows; n sets the row count, one to three
// batches and a part.
func FuzzIntColumn(f *testing.F) {
	f.Add([]byte{3}, uint16(5000), false)                    // one value throughout: width 0
	f.Add([]byte{1, 2, 3, 3}, uint16(2100), false)           // MinInt64 and MaxInt64 in each batch: width 8
	f.Add([]byte{0, 0, 5, 0}, uint16(1500), true)            // mostly NULL
	f.Add([]byte{0}, uint16(1024), false)                    // all NULL
	f.Add([]byte{4, 9, 200, 77, 13}, uint16(0), true)        // one row
	f.Add([]byte{250, 4, 101, 66, 3, 7}, uint16(3100), true) // mixed widths, a partial last batch
	f.Add([]byte{7}, uint16(1500), false)                    // spans of 57 bits: a byte past a boundary
	f.Add([]byte{15, 7}, uint16(2100), true)                 // 49 bits, then 57
	f.Fuzz(func(t *testing.T, data []byte, n uint16, isTime bool) {
		if len(data) == 0 {
			return
		}
		kind := val.KindInt
		if isTime {
			kind = val.KindTime
		}
		rows := int(n)%(3*BatchSize+200) + 1
		vals, null := make([]int64, rows), make([]bool, rows)
		for i := range vals {
			switch c := data[i%len(data)]; {
			case c%8 == 0:
				null[i] = true
			case c%8 == 1:
				vals[i] = math.MinInt64
			case c%8 == 2:
				vals[i] = math.MaxInt64
			case c%8 == 3 && i > 0:
				vals[i] = vals[i-1]
			default:
				vals[i] = int64(uint64(c)*0x9E3779B97F4A7C15*uint64(i+1)) >> (c % 64)
			}
		}
		nulls, z := packNulls(null)
		c := encodeInts(kind, vals, null, nulls, z)
		rng := rand.New(rand.NewSource(int64(rows)))
		var whole, own, picked, pickedOwn Vector
		for b := 0; b*BatchSize < rows; b++ {
			start, n := b*BatchSize, min(BatchSize, rows-b*BatchSize)
			var sel []int32
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
			c.read(&whole, &own, start, n, allRows[:n])
			c.read(&picked, &pickedOwn, start, n, sel)
			check := func(v *Vector, at []int32) {
				for _, i := range at {
					p := start + int(i)
					if v.Null[i] != null[p] || !null[p] && v.I64[i] != vals[p] {
						t.Fatalf("row %d: read %d (null %v), want %d (null %v)", p, v.I64[i], v.Null[i], vals[p], null[p])
					}
				}
			}
			check(&whole, allRows[:n])
			check(&picked, sel)

			want := Zone{}
			var lo, hi int64
			for p := start; p < start+n; p++ {
				switch {
				case null[p]:
					want.Nulls++
				case !want.OK:
					lo, hi, want.OK = vals[p], vals[p], true
				default:
					lo, hi = min(lo, vals[p]), max(hi, vals[p])
				}
			}
			got, gotRows := c.batchZone(b)
			if gotRows != n || got.Nulls != want.Nulls || got.OK != want.OK ||
				want.OK && (!val.Equal(got.Min, c.value(lo)) || !val.Equal(got.Max, c.value(hi)) || got.Min.Kind() != kind) {
				t.Fatalf("batch %d zone %+v over %d rows, want %d rows, %d nulls, [%d, %d]", b, got, gotRows, n, want.Nulls, lo, hi)
			}
		}
	})
}

func TestSegmentFileNameStability(t *testing.T) {
	got := segFileName("events", 7)
	want := fmt.Sprintf("%x-%016x.seg", "events", 7)
	if got != want {
		t.Fatalf("segFileName = %q, want %q", got, want)
	}
}

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
func eventsSchema(t testing.TB) *storage.Schema {
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

// segRows re-materializes every row of a table that lives in one of
// its sealed runs, keyed by RowID.
func segRows(t *testing.T, st *TableStore) map[storage.RowID]storage.Row {
	t.Helper()
	out := make(map[storage.RowID]storage.Row)
	for _, run := range st.tbl.View(nil).Runs {
		run.Seg.DecodeRows(run.Live, func(i int, r storage.Row) bool {
			out[run.Seg.RowID(i)] = slices.Clone(r)
			return true
		})
	}
	return out
}

// hotIDs returns the ids of a table's hot rows, ascending.
func hotIDs(tbl *storage.Table) []storage.RowID {
	var ids []storage.RowID
	tbl.View(nil).Hot(func(id storage.RowID, _ storage.Row) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// runs returns the segments a table holds as sealed runs.
func runs(tbl *storage.Table) []*Segment {
	held, _, _ := tbl.Runs()
	out := make([]*Segment, len(held))
	for i, r := range held {
		out[i] = r.(*Segment)
	}
	return out
}

// coldRows returns how many of a table's rows live in a sealed run only.
func coldRows(tbl *storage.Table) int {
	_, cold, _ := tbl.Runs()
	return cold
}

// canMatch is the zone test a scan applies to a whole segment.
func canMatch(seg *Segment, p *expr.Predicate) bool {
	return Admits(seg.schema, seg, seg.rows, p.Atoms)
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
	if n := st.Stats().SealedRows; n != 500 {
		t.Fatalf("sealed rows = %d", n)
	}
}

func TestZoneMaps(t *testing.T) {
	schema := eventsSchema(t)
	rows := []storage.Row{
		{val.Int(1), val.Null, val.String("b"), val.Float(2.5), val.Int(-3), val.Bool(true), val.Null},
		{val.Int(2), val.Null, val.Null, val.Float(7.25), val.Int(9), val.Bool(false), val.Null},
		{val.Int(3), val.Null, val.String("a"), val.Null, val.Int(4), val.Null, val.Null},
	}
	seg, err := buildSegment("events", schema, []storage.RowID{1, 2, 3}, rows)
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
		return canMatch(seg, p)
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
	rows, ids := make([]storage.Row, n), make([]storage.RowID, n)
	for i := range rows {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], ids[i] = r, storage.RowID(i+1)
	}
	seg, err := buildSegment("events", schema, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	ts := func(i int) val.Value { return val.Time(time.Unix(1700000000+int64(i), 0).UTC()) }
	rd := seg.NewReader(nil)
	rd.Prune([]expr.Atom{{Field: "ts", Op: expr.OpGe, Lit: ts(1100)}, {Field: "ts", Op: expr.OpLe, Lit: ts(2*BatchSize - 1)}})
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
	seg, err := buildSegment("events", schema, []storage.RowID{1, 2}, rows)
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
	if !canMatch(seg, p) {
		t.Fatal("broken zone must never prune")
	}
}

func mathNaN() float64 {
	var z float64
	return z / z
}

// filterExprs is the differential corpus: every atom shape the kernel
// compiler accepts, plus shapes that must take the row path.
var filterExprs = []struct {
	src     string
	compile bool // CompileFilter must accept (true) or reject (false)
}{
	{"qty > 100", true},
	{"qty >= -500", true},
	{"qty < 0", true},
	{"qty <= 0", true},
	{"qty = 42", true},
	{"qty != 42", false},
	{"price > 50", true},
	{"price <= 12.5", true},
	{"qty > 12.5", true},
	{"price = 31.41", true},
	{"sym = 'ACME'", true},
	{"sym != 'ACME'", false},
	{"sym > 'BETA'", true},
	{"sym <= 'DELT'", true},
	{"flag", false},
	{"NOT flag", false},
	{"flag = true", true},
	{"sym IS NULL", false},
	{"price IS NOT NULL", false},
	{"qty BETWEEN -100 AND 100", true},
	{"qty NOT BETWEEN 0 AND 250", false},
	{"sym IN ('ACME', 'GAMA')", false},
	{"sym NOT IN ('ACME', 'BETA', 'nosuch')", false},
	{"qty IN (1, 2, 3, 250)", false},
	{"qty IN (1, 2.0, 3)", false},
	{"sym = 'ACME' AND qty > 0", true},
	{"sym = 'ACME' OR price > 90", false},
	{"NOT (sym = 'ACME' AND qty > 0)", false},
	{"qty > 0 AND price > 0 AND flag", false},
	{"missing = 1", true},      // unknown field → NULL
	{"missing IS NULL", false}, // IS NULL is not an atom
	{"sym = 3", true},          // incomparable eq → never true
	{"sym != 3", false},        // != is not an atom
	{"1 = 1", false},           // no field: not an atom
	{"5 < qty", true},          // literal op field
	{"qty = NULL", true},       // NULL for every row
	{"qty BETWEEN NULL AND 5", true},
	{"qty + 1 > 2", false},    // arithmetic → row path
	{"sym LIKE 'AC%'", false}, // LIKE → row path
	{"sym > 3", false},        // incomparable ordering errors row-side
	{"qty = price", false},    // field vs field → row path
}

// eventsSegment seals n rows of randEvent(seed) into one segment.
func eventsSegment(t testing.TB, schema *storage.Schema, n int, seed int64) ([]storage.Row, *Segment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Row, n)
	ids := make([]storage.RowID, n)
	for i := 0; i < n; i++ {
		r, err := schema.RowFromMap(randEvent(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = r
		ids[i] = storage.RowID(i + 1)
	}
	seg, err := buildSegment("events", schema, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	return rows, seg
}

func TestFilterDifferential(t *testing.T) {
	schema := eventsSchema(t)
	rows, seg := eventsSegment(t, schema, 3000, 7)
	sel := make([]int32, 0, BatchSize)
	for _, tc := range filterExprs {
		pred, err := expr.Compile(tc.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tc.src, err)
		}
		prog, ok := CompileFilter(pred, schema)
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
			sel = prog.Filter(&b, append(sel[:0], allRows[:b.Len]...))
			for i, j := 0, 0; i < b.Len; i++ {
				row := rows[b.Start+i]
				want, err := pred.Match(storage.RowResolver{Schema: schema, Row: row})
				if err != nil {
					t.Fatalf("%q row %d: row-path error %v", tc.src, b.Start+i, err)
				}
				got := j < len(sel) && sel[j] == int32(i)
				if got {
					j++
				}
				if got != want {
					t.Fatalf("%q row %d (%v): columnar=%v row=%v",
						tc.src, b.Start+i, row, got, want)
				}
			}
		}
	}
}

// FuzzFilterMatchesRow holds the scan's form of a predicate, its atoms,
// to the row path. On every source CompileFilter accepts and every
// segment of eventsSchema rows, NULLs among them: Match errs on no row,
// Filter selects exactly the rows Match accepts, and neither Admits nor
// a Reader's Prune skips a segment or batch that holds one. The zones
// of a one-row segment are its row's values, so there Admits and Prune
// answer what Match does, but where a NaN proves nothing. fl is written
// into every fifth row's price and q into every seventh row's qty, so
// NaN, −0 and a literal's own value meet the kernels and the zones.
func FuzzFilterMatchesRow(f *testing.F) {
	for _, tc := range filterExprs {
		f.Add(tc.src, int64(1), uint16(2500), 1.5, int64(42))
	}
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		src string
		fl  float64
		q   int64
	}{
		{"price = 0 AND price <= 0", negZero, 0},      // −0
		{"price = 5 AND price >= 0", math.NaN(), 0},   // NaN
		{"price < 50 AND qty > 12.5", math.NaN(), 13}, // NaN, int against a float
		{"qty > 100", 0, 100},                         // the literal's own value
		{"qty >= 100 AND qty <= 100", 0, 100},
		{"price >= 12.5 AND price <= 12.5 AND sym >= 'BETA' AND sym <= 'BETA'", 12.5, 0},
		{"qty < 0 AND qty <= 3", 0, 0},
		{"qty >= 3 AND qty < 5", 0, 4},
		{"5 < qty AND 'a' <= sym", 0, 5},              // literal op field
		{"qty BETWEEN 1 AND 'z'", 0, 2},               // BETWEEN, incomparable high bound
		{"qty BETWEEN NULL AND 'z'", 0, 2},            // BETWEEN, NULL bound
		{"qty = NULL AND qty > 1", 0, 2},              // qty = NULL
		{"qty = 1 AND missing = 2 AND qty < 0", 0, 1}, // unknown field
		{"missing = 1 AND qty > 'a'", 0, 1},           // NULL, then an error
		{"sym = 'ACME' AND sym < 'B' AND flag = false", 0, 0},
		{"flag >= true AND blob > 'a'", 0, 0}, // bool; bytes against a string
		{"ts > 5", 0, 0},                      // time against an int
		{"qty < -9223372036854775807", 0, math.MinInt64},
	} {
		f.Add(seed.src, int64(3), uint16(2100), seed.fl, seed.q)
	}
	schema := eventsSchema(f)
	price, qty := schema.ColIndex("price"), schema.ColIndex("qty")
	f.Fuzz(func(t *testing.T, src string, seed int64, n uint16, fl float64, q int64) {
		pred, err := expr.Compile(src)
		if err != nil {
			return
		}
		prog, ok := CompileFilter(pred, schema)
		if !ok {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		rows := make([]storage.Row, 1+int(n)%(3*BatchSize))
		ids := make([]storage.RowID, len(rows))
		accepted := make([]bool, len(rows))
		hits := 0
		for i := range rows {
			r, err := schema.RowFromMap(randEvent(rng, i))
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				r[price] = val.Float(fl)
			}
			if i%7 == 0 {
				r[qty] = val.Int(q)
			}
			rows[i], ids[i] = r, storage.RowID(i+1)
			if accepted[i], err = pred.Match(storage.RowResolver{Schema: schema, Row: r}); err != nil {
				t.Fatalf("%q compiles, yet row %v errs: %v", src, r, err)
			}
			if accepted[i] {
				hits++
			}
		}
		seg, err := buildSegment("events", schema, ids, rows)
		if err != nil {
			t.Fatal(err)
		}
		if hits > 0 && !Admits(schema, seg, seg.rows, pred.Atoms) {
			t.Fatalf("%q: the zones skip a segment holding %d accepted rows", src, hits)
		}
		sel := make([]int32, 0, BatchSize)
		rd := seg.NewReader(prog.NeedCols())
		rd.Prune(pred.Atoms)
		var b Batch
		next := 0 // rows before it have been checked
		skipped := func(end int) {
			for ; next < end; next++ {
				if accepted[next] {
					t.Fatalf("%q: batch zones skip accepted row %d (%v)", src, next, rows[next])
				}
			}
		}
		for rd.Next(&b) {
			skipped(b.Start)
			sel = prog.Filter(&b, append(sel[:0], allRows[:b.Len]...))
			for i, j := 0, 0; i < b.Len; i++ {
				got := j < len(sel) && sel[j] == int32(i)
				if got {
					j++
				}
				if got != accepted[b.Start+i] {
					t.Fatalf("%q row %d (%v): Filter %v, Match %v", src, b.Start+i, rows[b.Start+i], got, accepted[b.Start+i])
				}
			}
			next = b.Start + b.Len
		}
		skipped(len(rows))

		for i := 0; i < min(len(rows), 8); i++ {
			one, err := buildSegment("events", schema, ids[i:i+1], rows[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			rd := one.NewReader(prog.NeedCols())
			rd.Prune(pred.Atoms)
			admitted, entered := Admits(schema, one, 1, pred.Atoms), rd.Next(&b)
			nan := math.IsNaN(fl) && i%5 == 0
			if admitted != entered || admitted != accepted[i] && !(admitted && nan) {
				t.Fatalf("%q on the one row %v: Admits %v, Prune enters %v, Match %v", src, rows[i], admitted, entered, accepted[i])
			}
		}
	})
}

// TestDeadMarkingAndModified: a sealed row that is updated leaves its
// run for the hot rows, a deleted one leaves the table, and the stats
// count both as dead rows of the segment.
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
	if hot := hotIDs(tbl); !slices.Equal(hot, []storage.RowID{upID}) {
		t.Errorf("hot rows %v: the updated sealed row alone must read from the row store", hot)
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
	if stats.SealedRows != 200 || stats.DeadRows != 2 || stats.ColdRows != 198 {
		t.Fatalf("stats = %+v", stats)
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
	segsBefore := m.Table("events").Stats().ResidentSegments
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
	if got := m.Table("events").Stats().ResidentSegments; got != segsBefore {
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
	// The corrupted segment's range is pending again; force a seal and
	// verify full history is intact.
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
	if n := m.Table("events").Stats().PendingRows; n != 100 {
		t.Fatalf("after attach: %d rows staged, want the 100 inserted before it", n)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	if n := m.Table("events").Stats().SealedRows; n != 100 {
		t.Fatalf("sealed %d rows from pre-attach state, want 100", n)
	}
	// Post-attach inserts are pending in turn.
	rng := rand.New(rand.NewSource(12))
	for i := 100; i < 150; i++ {
		if _, err := db.Insert("events", randEvent(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Table("events").Stats().PendingRows; n != 50 {
		t.Fatalf("after inserts: %d rows staged, want 50", n)
	}
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	if n := m.Table("events").Stats().SealedRows; n != 150 {
		t.Fatalf("sealed %d rows, want 150", n)
	}
}

func TestBackgroundSealer(t *testing.T) {
	db := openVolatile(t)
	m := attach(t, db, Config{SealRows: 64, SealInterval: 10 * time.Millisecond})
	fillEvents(t, db, 200, 13)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Table("events"); st != nil && st.Stats().SealedRows >= 64 {
			return
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
	_, seg := eventsSegment(t, schema, 4*BatchSize, 21)
	pred, err := expr.Compile("sym = 'ACME' AND qty > 0 AND price >= 0")
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := CompileFilter(pred, schema)
	if !ok {
		t.Fatal("filter should compile")
	}

	if a := testing.AllocsPerRun(100, func() {
		if !Admits(schema, seg, seg.rows, pred.Atoms) {
			t.Fatal("segment should survive the zone probe")
		}
	}); a != 0 {
		t.Errorf("zone probe allocates %v/op, want 0", a)
	}

	rd := seg.NewReader(prog.NeedCols())
	sel := make([]int32, 0, BatchSize)
	var b Batch
	if !rd.Next(&b) {
		t.Fatal("no batch")
	}
	// Warm up per-segment caches (string dictionary binding).
	prog.Filter(&b, append(sel[:0], allRows[:b.Len]...))
	if a := testing.AllocsPerRun(100, func() {
		prog.Filter(&b, append(sel[:0], allRows[:b.Len]...))
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
			prog.Filter(&b2, append(sel[:0], allRows[:b2.Len]...))
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

			want := storage.Zone{}
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

// TestStatsCountRunSideBytes pins a table's bytes (COMPACT's "bytes") as
// everything the table keeps per sealed row: its runs' segments, each
// run's live bitmap, and, its int keys arriving shuffled as concurrent
// writers' do, each run's key order.
func TestStatsCountRunSideBytes(t *testing.T) {
	const rows = 100_000
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, err := storage.NewSchema("trades", []storage.Column{
		{Name: "seq", Kind: val.KindInt}, {Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString}, {Name: "qty", Kind: val.KindInt},
		{Name: "px", Kind: val.KindInt},
	}, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	m := attach(t, db, Config{})
	rng := rand.New(rand.NewSource(1))
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	perm := rng.Perm(rows)
	for start := 0; start < rows; start += 1000 {
		txn := db.Begin()
		for _, seq := range perm[start : start+1000] {
			txn.InsertRow("trades", storage.Row{val.Int(int64(seq)), val.Time(epoch.Add(time.Duration(seq) * time.Second)),
				val.String(fmt.Sprintf("S%02d", rng.Intn(50))), val.Int(rng.Int63n(1000)), val.Int(rng.Int63n(10000))})
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Compact("trades")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("trades")
	segBytes, sealed, want := 0, 0, 0
	for _, seg := range runs(tbl) {
		segBytes += seg.bytes
		sealed += seg.rows
		want += seg.bytes + 8*((seg.rows+63)/64) + 4*seg.rows
	}
	if sealed != rows || coldRows(tbl) != rows {
		t.Fatalf("runs hold %d rows, %d of them cold; want all %d", sealed, coldRows(tbl), rows)
	}
	for _, st := range stats {
		if st.Table != "trades" {
			continue
		}
		if st.MemBytes != want {
			t.Fatalf("bytes = %d, want %d: segments %d, bitmaps and key orders %d", st.MemBytes, want, segBytes, want-segBytes)
		}
		t.Logf("%.1f B a row: segments %.1f, bitmaps and key orders %.1f",
			float64(st.MemBytes)/rows, float64(segBytes)/rows, float64(want-segBytes)/rows)
		return
	}
	t.Fatalf("no stats for trades in %+v", stats)
}

package columnar

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// evictSchema covers every kind a column can have, each nullable, the
// key too.
func evictSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema("t", []storage.Column{
		{Name: "k", Kind: val.KindInt},
		{Name: "n", Kind: val.KindInt},
		{Name: "f", Kind: val.KindFloat},
		{Name: "s", Kind: val.KindString},
		{Name: "b", Kind: val.KindBytes},
		{Name: "ok", Kind: val.KindBool},
		{Name: "ts", Kind: val.KindTime},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randValue draws column ci's value from a small domain, so that an
// update often rewrites a row to what it already held; one in six is
// NULL.
func randValue(rng *rand.Rand, ci int) val.Value {
	if rng.Intn(6) == 0 {
		return val.Null
	}
	switch ci {
	case 1:
		return val.Int(int64(rng.Intn(5) - 2))
	case 2:
		return val.Float([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -3e300}[rng.Intn(5)])
	case 3:
		return val.String([]string{"", "a", "bb", "ccc"}[rng.Intn(4)])
	case 4:
		return val.Bytes([][]byte{{}, {0}, {1, 2, 3}}[rng.Intn(3)])
	case 5:
		return val.Bool(rng.Intn(2) == 0)
	default:
		return val.Time(time.Unix(int64(rng.Intn(3))*86400, int64(rng.Intn(2))).UTC())
	}
}

// enc is a row's exact binary image: NaN payloads and the sign of zero
// count.
func enc(r storage.Row) string {
	var b []byte
	for _, v := range r {
		b = val.AppendBinary(b, v)
	}
	return string(b)
}

// evictSide is one database of the differential with the change images
// its hooks saw.
type evictSide struct {
	db   *storage.DB
	m    *Manager // nil: the oracle, with no columnar history
	seen []string
}

func (s *evictSide) open(t *testing.T, dir string, create bool) {
	t.Helper()
	opts := storage.Options{}
	if dir != "" {
		opts.Dir = filepath.Join(dir, "wal")
	}
	db, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if create {
		if err := db.CreateTable(evictSchema(t)); err != nil {
			t.Fatal(err)
		}
	}
	note := func(stage string, c *storage.Change) {
		s.seen = append(s.seen, fmt.Sprintf("%s %s %d %q %q", stage, c.Kind, c.ID, enc(c.Old), enc(c.New)))
	}
	db.OnBefore("t", func(c *storage.Change) error { note("before", c); return nil })
	db.OnCommit(func(ci *storage.CommitInfo) {
		for i := range ci.Changes {
			note("commit", &ci.Changes[i])
		}
	})
	s.db = db
}

func (s *evictSide) close() {
	if s.m != nil {
		s.m.Close()
	}
	s.db.Close()
}

func (s *evictSide) table() *storage.Table {
	tbl, _ := s.db.Table("t")
	return tbl
}

// TestEvictedMatchesHot is the differential of sealed rows leaving the
// row store: a seeded stream of INSERT, UPDATE and DELETE transactions
// goes into a database whose history seals every 64 rows, in the
// background and by Compact at random points, and into one with no
// columnar history at all. After every transaction Get, GetByPK, Len,
// Scan, ScanRows and ScanRowsWhere answer the same on both, and the
// BEFORE and commit hooks were handed the same old and new images. The
// durable run reopens the database from its WAL and segment files on
// the way.
//
// A sealed run's key column stands for its rows' primary-key entries,
// which leave the table's key map: searched in place when the keys
// ascend, and through the run's key order when they do not. Those keys
// are now and then NULL, and a run holding a NULL key keeps its
// entries. The stream must have evicted rows, updated and deleted
// evicted rows, had runs given back, touched a row twice in one
// transaction and inserted an evicted row's key (both sides refuse
// both), and moved a key off an evicted row and onto another row in one
// transaction; evicted rows must have left the key map, and with keys
// that do not ascend some must have kept their entries. Otherwise the
// test proves nothing.
func TestEvictedMatchesHot(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			for _, ascending := range []bool{true, false} {
				t.Run(fmt.Sprintf("ascending=%v", ascending), func(t *testing.T) { evictDifferential(t, durable, ascending) })
			}
		})
	}
}

// keyless returns how many of a table's rows have no entry in its
// primary-key map: the live rows of the runs whose key column stands in
// for them. Only a commit or a seal writes the map, and sealMu holds
// seals off, so the read races neither.
func keyless(st *TableStore) int {
	st.sealMu.Lock()
	defer st.sealMu.Unlock()
	return st.tbl.Len() - reflect.ValueOf(st.tbl).Elem().FieldByName("pk").Len()
}

func evictDifferential(t *testing.T, durable, ascending bool) {
	const ops = 500
	rng := rand.New(rand.NewSource(49))
	dir := ""
	if durable {
		dir = t.TempDir()
	}
	cfg := Config{SealRows: 64, SealInterval: time.Hour}
	if durable {
		cfg.Dir = filepath.Join(dir, "segments")
	}
	var hot, cold evictSide
	hot.open(t, "", true)
	cold.open(t, dir, true)
	attachCold := func() {
		m, err := Attach(cold.db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold.m = m
	}
	attachCold()
	defer func() { hot.close(); cold.close() }()

	live := map[storage.RowID]val.Value{} // row → its key
	dead := map[int64]bool{}              // keys no live row has any more
	nextKey := int64(0)
	fresh := func() val.Value {
		nextKey++
		if !ascending && nextKey%2 == 1 {
			return val.Int(-nextKey)
		}
		return val.Int(nextKey)
	}
	// maxKeyless and maxKeyed are the most evicted rows without and with
	// an entry in the key map.
	maxCold, maxKeyless, maxKeyed := 0, 0, 0
	coldTouched, refused, collided, movedKeys, gaveBack := 0, 0, 0, 0, 0
	for op := 0; op < ops; op++ {
		type change struct {
			kind storage.ChangeKind
			id   storage.RowID
			row  storage.Row
			set  map[string]val.Value
		}
		var txn []change
		ids := make([]storage.RowID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		// A transaction touches a row at most once: one that picks a
		// row again is refused whole, on both sides.
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		var picked []storage.RowID
		again := false
		pick := func() storage.RowID {
			if len(picked) > 0 && rng.Intn(8) == 0 {
				again = true
				return picked[rng.Intn(len(picked))]
			}
			id := ids[0]
			ids = ids[1:]
			picked = append(picked, id)
			return id
		}
		insert := func(key val.Value) {
			row := storage.Row{key}
			for ci := 1; ci < 7; ci++ {
				row = append(row, randValue(rng, ci))
			}
			txn = append(txn, change{kind: storage.Insert, row: row})
		}
		// collide is a row whose key an insert takes, moved one whose
		// key an update takes once it moved off it.
		var collide, moved storage.RowID
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch r := rng.Intn(12); {
			case !ascending && r == 0 && !slices.ContainsFunc(txn, func(c change) bool { return c.kind == storage.Insert && c.row[0].IsNull() }):
				insert(val.Null) // refused while a live row's key is NULL
			case r < 5 || len(ids) < 2:
				insert(fresh())
			case r == 5 && (len(dead) == 0 || rng.Intn(6) > 0):
				// The key of a live row, as of the transaction's start.
				collide = ids[rng.Intn(len(ids))]
				insert(live[collide])
			case r == 5:
				// A key that was given up: deleted or moved off.
				freed := make([]int64, 0, len(dead))
				for k := range dead {
					freed = append(freed, k)
				}
				slices.Sort(freed)
				insert(val.Int(freed[rng.Intn(len(freed))]))
			case r < 9:
				set := map[string]val.Value{}
				for ci, c := range evictSchema(t).Columns[1:] {
					if rng.Intn(3) == 0 {
						set[c.Name] = randValue(rng, ci+1)
					}
				}
				if rng.Intn(8) == 0 {
					set["k"] = fresh()
				}
				txn = append(txn, change{kind: storage.Update, id: pick(), set: set})
			case r < 11:
				txn = append(txn, change{kind: storage.Delete, id: pick()})
			default:
				// One row moves to a fresh key, and another takes the
				// key it freed.
				moved = pick()
				txn = append(txn,
					change{kind: storage.Update, id: moved, set: map[string]val.Value{"k": fresh()}},
					change{kind: storage.Update, id: pick(), set: map[string]val.Value{"k": live[moved]}})
			}
		}
		coldBefore, runsBefore := coldRows(cold.table()), len(runs(cold.table()))
		hotBefore := hotIDs(cold.table())
		collideCold := collide != 0 && !slices.Contains(hotBefore, collide)
		movedCold := moved != 0 && !slices.Contains(hotBefore, moved)
		var infos [2]*storage.CommitInfo
		var errs [2]error
		for i, side := range []*evictSide{&hot, &cold} {
			tx := side.db.Begin()
			for _, c := range txn {
				switch c.kind {
				case storage.Insert:
					tx.InsertRow("t", c.row)
				case storage.Update:
					tx.Update("t", c.id, c.set)
				case storage.Delete:
					tx.Delete("t", c.id)
				}
			}
			infos[i], errs[i] = tx.Commit()
		}
		if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
			t.Fatalf("op %d: commit errors differ: %v / %v", op, errs[0], errs[1])
		}
		switch {
		case (again || collide != 0) && errs[0] == nil:
			t.Fatalf("op %d: a transaction touching a row twice or inserting a live key committed", op)
		case errors.Is(errs[0], storage.ErrRowTouched):
			refused++
		case errs[0] != nil && strings.Contains(errs[0].Error(), "duplicate primary key"):
			if collideCold {
				collided++
			}
		case errs[0] != nil:
			t.Fatalf("op %d: commit refused: %v", op, errs[0])
		}
		if errs[0] == nil {
			for _, c := range infos[0].Changes {
				if c.Old != nil && !c.Old[0].IsNull() {
					k, _ := c.Old[0].AsInt()
					dead[k] = true
				}
				if c.New == nil {
					delete(live, c.ID)
					continue
				}
				live[c.ID] = c.New[0]
				if k, ok := c.New[0].AsInt(); ok {
					delete(dead, k)
				}
			}
			if coldRows(cold.table()) < coldBefore {
				coldTouched++
			}
			if len(runs(cold.table())) < runsBefore {
				gaveBack++
			}
			if movedCold {
				movedKeys++
			}
		}
		switch {
		case rng.Intn(40) == 0:
			if _, err := cold.m.Compact("t"); err != nil {
				t.Fatal(err)
			}
		case durable && rng.Intn(150) == 0:
			cold.close()
			cold.open(t, dir, false)
			attachCold()
		}
		n, c := keyless(cold.m.Table("t")), coldRows(cold.table())
		maxCold, maxKeyless, maxKeyed = max(maxCold, c), max(maxKeyless, n), max(maxKeyed, c-n)
		compareTables(t, op, hot.table(), cold.table(), live, dead)
		if !slices.Equal(hot.seen, cold.seen) {
			t.Fatalf("op %d: hooks saw\n%q\nwith no history, and\n%q\nwith it", op, hot.seen, cold.seen)
		}
		hot.seen, cold.seen = hot.seen[:0], cold.seen[:0]
	}
	const report = "at most %d rows evicted, %d without a key entry and %d with one; %d commits took one back, %d gave a run back, %d moved an evicted row's key; %d touched a row twice, %d inserted an evicted row's key"
	args := []any{maxCold, maxKeyless, maxKeyed, coldTouched, gaveBack, movedKeys, refused, collided}
	if coldTouched == 0 || gaveBack == 0 || refused == 0 || collided == 0 || movedKeys == 0 || maxKeyless == 0 || !ascending && maxKeyed == 0 {
		t.Fatalf(report+": the differential proved nothing", args...)
	}
	t.Logf(report, args...)
}

// compareTables holds every read of b, whose sealed rows may have left
// its row store, to a, which has no history: live maps each row to its
// key, and no row has a key in dead.
func compareTables(t *testing.T, op int, a, b *storage.Table, live map[storage.RowID]val.Value, dead map[int64]bool) {
	t.Helper()
	for k := range dead {
		_, ida, okA := a.GetByPK(val.Int(k))
		_, idb, okB := b.GetByPK(val.Int(k))
		if okA || okB {
			t.Fatalf("op %d: GetByPK(%d) of a freed key = %d %v with no history, %d %v with it", op, k, ida, okA, idb, okB)
		}
	}
	if a.Len() != len(live) || b.Len() != len(live) {
		t.Fatalf("op %d: Len %d with no history, %d with it, want %d", op, a.Len(), b.Len(), len(live))
	}
	for id, k := range live {
		ra, okA := a.Get(id)
		rb, okB := b.Get(id)
		if !okA || !okB || enc(ra) != enc(rb) {
			t.Fatalf("op %d: Get(%d) = %v %v with no history, %v %v with it", op, id, ra, okA, rb, okB)
		}
		pa, ida, okA := a.GetByPK(k)
		pb, idb, okB := b.GetByPK(k)
		if !okA || !okB || ida != id || idb != id || enc(pa) != enc(ra) || enc(pb) != enc(ra) {
			t.Fatalf("op %d: GetByPK(%v) = %d %v with no history, %d %v with it, want %d", op, k, ida, pa, idb, pb, id)
		}
		if _, ok := b.Get(id + 1); !ok {
			if _, ok := live[id+1]; ok {
				t.Fatalf("op %d: row %d missing with history", op, id+1)
			}
		} else if _, ok := live[id+1]; !ok {
			t.Fatalf("op %d: deleted row %d still read with history", op, id+1)
		}
	}
	scan := func(tbl *storage.Table) []string {
		var out []string
		tbl.Scan(func(id storage.RowID, r storage.Row) bool {
			out = append(out, fmt.Sprintf("%d %q", id, enc(r)))
			return true
		})
		sort.Strings(out)
		return out
	}
	rows := func(ids []storage.RowID, rows []storage.Row) []string {
		out := make([]string, len(ids))
		for i := range ids {
			out[i] = fmt.Sprintf("%d %q", ids[i], enc(rows[i]))
		}
		sort.Strings(out)
		return out
	}
	where := func(tbl *storage.Table) []string {
		ids, rs, err := tbl.ScanRowsWhere(func(r storage.Row) (bool, error) {
			b, _ := r[4].AsBytes()
			return r[3].IsNull() || bytes.Equal(b, []byte{0}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows(ids, rs)
	}
	want := scan(a)
	if got := scan(b); !slices.Equal(got, want) {
		t.Fatalf("op %d: Scan with history\n%q\nwant\n%q", op, got, want)
	}
	if got := rows(b.ScanRows()); !slices.Equal(got, want) {
		t.Fatalf("op %d: ScanRows with history\n%q\nwant\n%q", op, got, want)
	}
	if got, want := where(b), where(a); !slices.Equal(got, want) {
		t.Fatalf("op %d: ScanRowsWhere with history\n%q\nwant\n%q", op, got, want)
	}
}

// TestSealedPreloadLeavesNoImage inserts 100 k rows of E23 dbmix's shape
// (seq, ts, sym, qty, px; seq the key), 1,000 per commit, with the
// background sealer running, then compacts: every row then lives in its
// segment alone, and is read back from it.
func TestSealedPreloadLeavesNoImage(t *testing.T) {
	const rows = 100_000
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "seq", Kind: val.KindInt}, {Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString}, {Name: "qty", Kind: val.KindInt},
		{Name: "px", Kind: val.KindInt},
	}, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	m := attach(t, db, Config{})
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	row := func(seq int) storage.Row {
		return storage.Row{val.Int(int64(seq)), val.Time(epoch.Add(time.Duration(seq) * time.Second)),
			val.String(fmt.Sprintf("S%02d", seq%50)), val.Int(int64(seq % 1000)), val.Int(int64(seq % 10000))}
	}
	for start := 0; start < rows; start += 1000 {
		txn := db.Begin()
		for seq := start; seq < start+1000; seq++ {
			txn.InsertRow("trades", row(seq))
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Compact("trades"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("trades")
	if n, c := tbl.Len(), coldRows(tbl); n != rows || c != rows {
		t.Fatalf("after Compact: %d rows, %d of them in their segment alone; want %d of %d", n, c, rows, rows)
	}
	if st := m.Stats()[0]; st.ColdRows != rows {
		t.Errorf("Stats().ColdRows = %d, want %d", st.ColdRows, rows)
	}
	for _, seq := range []int{0, 1, 8191, 8192, 54321, rows - 1} {
		got, _, ok := tbl.GetByPK(val.Int(int64(seq)))
		if !ok || enc(got) != enc(row(seq)) {
			t.Errorf("GetByPK(%d) = %v %v, want %v", seq, got, ok, row(seq))
		}
	}
}

// TestAllocsColdGet pins a point read of a row that lives in its
// segment alone at one allocation, the Row, as a hot one is: the read
// sets up no batch, and its string and bytes values alias the segment.
// A read by key is one allocation too: the key is encoded on the stack,
// and the segment's key column is searched in place.
func TestAllocsColdGet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	db := openVolatile(t)
	m := attach(t, db, Config{})
	fillEvents(t, db, 3000, 7)
	if _, err := m.Compact("events"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("events")
	if c := coldRows(tbl); c != 3000 {
		t.Fatalf("%d rows evicted, want 3000", c)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if r, ok := tbl.Get(2048); !ok || len(r) != 7 {
			t.Fatal("row missing")
		}
	})
	if allocs != 1 {
		t.Errorf("a cold Get allocates %.1f times, want 1", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if r, id, ok := tbl.GetByPK(val.Int(2047)); !ok || id != 2048 || len(r) != 7 {
			t.Fatal("key missing")
		}
	})
	if allocs != 1 {
		t.Errorf("a cold GetByPK allocates %.1f times, want 1", allocs)
	}
}

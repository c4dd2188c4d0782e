package query

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/expr"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestAggregateMixedKinds pins the one aggregate error a typed column
// cannot produce, so only the row feeder can hit it: MIN/MAX over
// values of incomparable kinds. Grouped or not, the text is the same.
func TestAggregateMixedKinds(t *testing.T) {
	_, cmpErr := val.Compare(val.String("x"), val.Int(1))
	want := fmt.Sprintf("query: min over mixed kinds: %v", cmpErr)
	rows := []expr.MapResolver{
		{"k": val.String("a"), "v": val.Int(1)},
		{"k": val.String("b"), "v": val.String("only")},
		{"k": val.String("a"), "v": val.String("x")},
	}
	for _, groupBy := range [][]string{nil, {"k"}} {
		g := new(groupTable)
		g.reset(groupBy, []aggSpec{{alias: "n", kind: Count}, {alias: "lo", kind: Min, col: "v"}}, new(rowArena))
		var err error
		for _, r := range rows {
			if err = g.addRow(r); err != nil {
				break
			}
		}
		if err == nil || err.Error() != want {
			t.Fatalf("group by %v: error %v, want %q", groupBy, err, want)
		}
	}
}

// newTradesDB builds the dbmix table shape: sealed rows in segments of
// segRows, then tail rows, seq ascending throughout, 50 symbols, and a
// sealer that never runs on its own.
func newTradesDB(sealed, segRows, tail int) (*storage.DB, *columnar.Manager, error) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		return nil, nil, err
	}
	schema, err := storage.NewSchema("trades", []storage.Column{
		{Name: "seq", Kind: val.KindInt, NotNull: true},
		{Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString},
		{Name: "qty", Kind: val.KindInt},
		{Name: "px", Kind: val.KindInt},
	}, "seq")
	if err == nil {
		err = db.CreateTable(schema)
	}
	if err != nil {
		return nil, nil, err
	}
	m, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < sealed+tail; i++ {
		if _, err := db.Insert("trades", map[string]val.Value{
			"seq": val.Int(int64(i)),
			"ts":  val.Time(time.Unix(1700000000+int64(i), 0).UTC()),
			"sym": val.String(fmt.Sprintf("S%02d", (i*7)%50)),
			"qty": val.Int(int64((i * 13) % 1000)),
			"px":  val.Int(int64((i * 31) % 10000)),
		}); err != nil {
			return nil, nil, err
		}
		if n := i + 1; n <= sealed && (n%segRows == 0 || n == sealed) {
			if _, err := m.Compact(""); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, m, nil
}

func tradesDB(t *testing.T, sealed, tail int) *storage.DB {
	t.Helper()
	db, m, err := newTradesDB(sealed, sealed, tail)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(); db.Close() })
	return db
}

// TestAllocsGroupedAggregate: a grouped aggregate over segment and
// tail allocates a fixed, small number of objects — none per row and
// none per group — so twice the rows cost exactly as many.
func TestAllocsGroupedAggregate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	measure := func(rows int) float64 {
		db := tradesDB(t, rows, rows)
		query := func() {
			res, plan, err := New("trades").GroupBy("sym").Agg("total", Sum, "qty").Agg("n", Count, "").Explain(db)
			if err != nil || plan.Access != "columnar" || len(res.Rows) != 50 {
				t.Fatalf("plan %+v, %d groups, err %v", plan, len(res.Rows), err)
			}
		}
		query()
		return testing.AllocsPerRun(20, query)
	}
	base, doubled := measure(4096), measure(8192)
	if base > 100 {
		t.Errorf("grouped aggregate allocates %v objects per query, want <= 100", base)
	}
	if doubled != base {
		t.Errorf("allocations grow with the rows: %v at 2x4096, %v at 2x8192", base, doubled)
	}
}

// TestAllocsTailPruned: a range predicate the tail's running zone map
// excludes costs the tail nothing — the same allocations however long
// the tail is.
func TestAllocsTailPruned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	measure := func(tail int) float64 {
		db := tradesDB(t, 4096, tail)
		query := func() {
			res, err := New("trades").Where("seq >= 100 AND seq < 200 AND qty >= 500").Run(db)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("%d rows, err %v", len(res.Rows), err)
			}
		}
		query()
		return testing.AllocsPerRun(20, query)
	}
	if short, long := measure(1000), measure(8000); short != long {
		t.Errorf("allocations grow with a pruned tail: %v at 1000 rows, %v at 8000", short, long)
	}
}

// TestColumnarConcurrentPrefix runs queries against a table while one
// goroutine commits multi-row transactions and another keeps forcing
// seals. Whatever moment a query's snapshot falls on, its result must
// be exactly the first N commits for some N: no commit torn, no row
// twice, none lost on its way from the tail into a segment.
func TestColumnarConcurrentPrefix(t *testing.T) {
	const perCommit, groups = 37, 7
	commits := 300
	if testing.Short() {
		commits = 60
	}
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
	// A low threshold keeps the background sealer busy too.
	m, err := columnar.Attach(db, columnar.Config{SealRows: 100, SealInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	commit := func(k int) error {
		txn := db.Begin()
		for id := k * perCommit; id < (k+1)*perCommit; id++ {
			if err := txn.Insert("events", map[string]val.Value{
				"id": val.Int(int64(id)), "sym": val.String(fmt.Sprintf("g%d", id%groups)), "qty": val.Int(int64(id)),
			}); err != nil {
				return err
			}
		}
		_, err := txn.Commit()
		return err
	}
	if err := commit(0); err != nil { // the table has history before anyone reads
		t.Fatal(err)
	}

	// prefixOf checks that n rows summing to sum are ids 0..n-1 of whole
	// commits.
	prefixOf := func(what string, n, sum int64) bool {
		if n%perCommit != 0 || sum != n*(n-1)/2 {
			t.Errorf("%s: %d rows summing to %d is no prefix of %d-row commits", what, n, sum, perCommit)
			return false
		}
		return true
	}
	var columnarRuns atomic.Int64
	check := map[string]func() int64{
		"aggregate": func() int64 {
			// A query that lands between a commit's apply and its hook
			// finds the history behind the table and takes the row path.
			res, plan, err := New("events").Agg("n", Count, "").Agg("s", Sum, "qty").Explain(db)
			if err != nil || (plan.Access != "columnar" && plan.Access != "scan") {
				t.Errorf("aggregate: access %q, err %v", plan.Access, err)
				return -1
			}
			if plan.Access == "columnar" {
				columnarRuns.Add(1)
			}
			n, _ := res.Rows[0][0].AsInt()
			s, _ := res.Rows[0][1].AsFloat()
			prefixOf("aggregate", n, int64(s))
			return n
		},
		"grouped": func() int64 {
			res, err := New("events").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty").Run(db)
			if err != nil {
				t.Errorf("grouped: %v", err)
				return -1
			}
			var n, sum int64
			for _, row := range res.Rows {
				gn, _ := row[1].AsInt()
				gs, _ := row[2].AsFloat()
				n, sum = n+gn, sum+int64(gs)
			}
			if !prefixOf("grouped", n, sum) {
				return n
			}
			for _, row := range res.Rows {
				sym, _ := row[0].AsString()
				var g, wantN, wantSum int64
				fmt.Sscanf(sym, "g%d", &g)
				for id := g; id < n; id += groups {
					wantN, wantSum = wantN+1, wantSum+id
				}
				gn, _ := row[1].AsInt()
				if gs, _ := row[2].AsFloat(); gn != wantN || int64(gs) != wantSum {
					t.Errorf("grouped: %s has %d rows summing to %v in a %d-row prefix, want %d and %d", sym, gn, gs, n, wantN, wantSum)
				}
			}
			return n
		},
		"scan": func() int64 {
			res, err := New("events").Select("id").Run(db)
			if err != nil {
				t.Errorf("scan: %v", err)
				return -1
			}
			ids := make([]int64, len(res.Rows))
			for i, row := range res.Rows {
				ids[i], _ = row[0].AsInt()
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for i, id := range ids {
				if id != int64(i) {
					t.Errorf("scan: %d rows, position %d holds id %d (duplicate or lost row)", len(ids), i, id)
					return int64(len(ids))
				}
			}
			if len(ids)%perCommit != 0 {
				t.Errorf("scan: %d rows tears a %d-row commit", len(ids), perCommit)
			}
			return int64(len(ids))
		},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // seals forced on top of the background sealer's
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := m.Compact("events"); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[string]int64{}
			for {
				for name, run := range check {
					n := run()
					if n < last[name] {
						t.Errorf("%s: saw %d rows after having seen %d", name, n, last[name])
					}
					last[name] = n
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for k := 1; k < commits; k++ {
		if err := commit(k); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	before := columnarRuns.Load()
	if before == 0 {
		t.Error("no aggregate ran columnar while the table was being written")
	}
	for name, run := range check {
		if n := run(); n != int64(commits*perCommit) && !t.Failed() {
			t.Errorf("%s at rest: %d rows, want %d", name, n, commits*perCommit)
		}
	}
	if columnarRuns.Load() == before {
		t.Error("aggregate at rest did not run columnar")
	}
}

// TestColumnarReadYourWrites: a scan that follows an acknowledged write
// sees it, whatever other goroutines are committing. A commit returns
// before its own after-commit hook has run when another goroutine is
// already delivering hooks, so the columnar history can be behind the
// row store at that moment; the scan must notice and read the row
// store. Writers to another table must not cost the reader its
// columnar path more than momentarily, writers to the same table may.
func TestColumnarReadYourWrites(t *testing.T) {
	// With writers on t every scan reads all they have inserted so far,
	// so the test's cost grows with the square of its length. The
	// writers insert at most perRound rows per reader round, so that
	// length does not depend on how the goroutines are scheduled.
	const perRound = 8
	rounds := 1500
	if testing.Short() || raceflag.Enabled {
		rounds = 400
	}
	for _, busy := range []string{"u", "t"} {
		t.Run("writers on "+busy, func(t *testing.T) {
			db, err := storage.Open(storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, name := range []string{"t", "u"} {
				schema, err := storage.NewSchema(name, []storage.Column{
					{Name: "id", Kind: val.KindInt, NotNull: true},
					{Name: "qty", Kind: val.KindInt},
				}, "id")
				if err != nil {
					t.Fatal(err)
				}
				if err := db.CreateTable(schema); err != nil {
					t.Fatal(err)
				}
			}
			// t is never sealed: before the tail was columnar, such a
			// table was read from the row store and had this guarantee.
			m, err := columnar.Attach(db, columnar.Config{SealRows: 1 << 30, SealInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			const mine = 1 << 32 // the reader's ids start here, the writers' stay below
			done := make(chan struct{})
			budget := make(chan struct{}, perRound) // one token per writer insert
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for id := w; ; id += 3 {
						select {
						case <-done:
							return
						case <-budget:
						}
						if _, err := db.Insert(busy, map[string]val.Value{"id": val.Int(int64(id))}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			columnarRuns := 0
			for i := 1; i <= rounds && !t.Failed(); i++ {
				// Top the writers' budget up to perRound; tokens they have
				// not spent yet carry over rather than add up.
				for k := 0; k < perRound; k++ {
					select {
					case budget <- struct{}{}:
					default:
					}
				}
				if _, err := db.Insert("t", map[string]val.Value{"id": val.Int(int64(mine + i)), "qty": val.Int(1)}); err != nil {
					t.Fatal(err)
				}
				res, plan, err := New("t").Where(fmt.Sprintf("id > %d", mine)).Agg("n", Count, "").Explain(db)
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := res.Rows[0][0].AsInt(); n != int64(i) {
					t.Errorf("after %d acknowledged inserts a scan (access %s) counts %d", i, plan.Access, n)
				}
				if plan.Access == "columnar" {
					columnarRuns++
				}
			}
			close(done)
			wg.Wait()
			if columnarRuns == 0 {
				t.Error("no scan ran columnar")
			}
			t.Logf("%d of %d scans ran columnar", columnarRuns, rounds)
		})
	}
}

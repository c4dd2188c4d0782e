package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// scratchDB is colDB's events table — sealed segments with rewritten and
// deleted rows beside hot ones — beside a narrower table of its own kinds,
// so that a scratch moves between schemas of different widths.
func scratchDB(t *testing.T) *storage.DB {
	t.Helper()
	db, m := colDBWith(t, 900, 60)
	schema, err := storage.NewSchema("small", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "name", Kind: val.KindString},
		{Name: "v", Kind: val.KindFloat},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		row := map[string]val.Value{"id": val.Int(int64(i)), "v": val.Float(float64(i%40) / 2)}
		if i%7 != 0 {
			row["name"] = val.String(colSyms[i%3])
		}
		if _, err := db.Insert("small", row); err != nil {
			t.Fatal(err)
		}
		if i == 200 {
			if _, err := m.Compact("small"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// scratchQueries adds to the differential corpus the shapes a scratch
// must also survive: aggregates that fail mid-scan, a join, the other
// table, and paging.
func scratchQueries() map[string]func() *Query {
	qs := colQueries()
	for name, mk := range batchQueries() {
		qs[name] = mk
	}
	extra := map[string]func() *Query{
		"sum-string-fails":       func() *Query { return New("events").Agg("s", Sum, "sym") },
		"group-sum-string-fails": func() *Query { return New("events").GroupBy("flag").Agg("n", Count, "").Agg("s", Sum, "sym") },
		"join": func() *Query {
			return New("events").Join("small", "qty", "id").Where("id < 100").OrderBy("events.id", Asc)
		},
		"small-all":     func() *Query { return New("small") },
		"small-group":   func() *Query { return New("small").GroupBy("name").Agg("n", Count, "").Agg("s", Sum, "v") },
		"small-project": func() *Query { return New("small").Select("id", "v * 2 AS dbl").Where("v > 10") },
		"small-page":    func() *Query { return New("small").OrderBy("v", Desc).OrderBy("id", Asc).Limit(9).Offset(4) },
		"no-table":      func() *Query { return New("nosuch") },
		// Two grouped aggregates over one sealed segment and no tail, back
		// to back in name order: the second must not map its dictionary
		// codes through the first's slots.
		"onesegment-group": func() *Query { return New("events").Where("id < 64").GroupBy("sym").Agg("n", Count, "") },
		"onesegment-group-narrower": func() *Query {
			return New("events").Where("id < 64 AND sym IN ('GAMA')").GroupBy("sym").Agg("n", Count, "").Agg("s", Sum, "qty")
		},
	}
	for name, mk := range extra {
		qs[name] = mk
	}
	return qs
}

// TestScratchReuse runs the corpus in one scratch, in name order and
// then in a seeded random order: every result, and every error, must be
// exactly what a fresh Run gives — the same columns, the same rows —
// including the first query after a failed one.
func TestScratchReuse(t *testing.T) {
	db := scratchDB(t)
	queries := scratchQueries()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	var sc Scratch
	afterFailure := 0
	failed := false
	for step := 0; step < len(names)+600; step++ {
		name := names[rng.Intn(len(names))]
		if step < len(names) {
			name = names[step]
		}
		want, wantErr := queries[name]().Run(db)
		got, err := queries[name]().RunIn(db, &sc)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("step %d, %s: error %v, want %v", step, name, err, wantErr)
		}
		if failed {
			afterFailure++
		}
		failed = err != nil
		if err != nil {
			continue
		}
		resultEqual(t, fmt.Sprintf("step %d, %s", step, name), got, want)
	}
	if afterFailure == 0 {
		t.Fatal("no query ran right after a failed one")
	}
}

// TestScratchBounded: what a scratch keeps for the next run is bounded,
// however large the result of the last.
func TestScratchBounded(t *testing.T) {
	db := scratchDB(t)
	var sc Scratch
	for _, q := range []*Query{
		New("events"), // ~900 rows of 7 values
		New("events").GroupBy("id").Agg("n", Count, ""), // as many groups
		New("small").Where("id < 3"),
	} {
		if _, err := q.RunIn(db, &sc); err != nil {
			t.Fatal(err)
		}
	}
	sc.rows.reset()
	sc.group.reset(nil, nil, &sc.rows)
	if kept := cap(sc.rows.vals) * valueSize; kept > maxRetained {
		t.Errorf("the row arena keeps %d B", kept)
	}
	if kept := cap(sc.group.keyVals)*valueSize + cap(sc.group.arena); kept > maxRetained {
		t.Errorf("the group table keeps %d B", kept)
	}
}

// bytesPerRun reports the bytes f allocates per call, as the mean over
// runs calls after two warm-up calls.
func bytesPerRun(runs int, f func()) float64 {
	f()
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocsSelectReuse: the two dbmix SELECTs, run in a kept scratch,
// allocate their plan — the parsed and compiled predicate, the history
// snapshot — and not their rows, decode buffers or group table: a few
// kilobytes, and as many objects at twice the rows.
func TestAllocsSelectReuse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	queries := []struct {
		name           string
		q              *Query
		objects, bytes float64
	}{
		{"scan", New("trades").Where("seq >= 1000 AND seq < 3000 AND qty >= 900"), 60, 8 << 10},
		{"aggregate", New("trades").Where("seq < 4096").GroupBy("sym").Agg("total", Sum, "qty").Agg("n", Count, ""), 30, 4 << 10},
	}
	objects := make([]float64, len(queries))
	for k, rows := range []int{4096, 8192} {
		db := tradesDB(t, rows, rows)
		var sc Scratch
		for i, c := range queries {
			run := func() {
				if _, err := c.q.RunIn(db, &sc); err != nil {
					t.Fatal(err)
				}
			}
			b := bytesPerRun(50, run)
			n := testing.AllocsPerRun(50, run)
			if n > c.objects || b > c.bytes {
				t.Errorf("%s at 2x%d rows: %.1f objects and %.0f B per query, want at most %.0f and %.0f", c.name, rows, n, b, c.objects, c.bytes)
			}
			if k > 0 && n != objects[i] {
				t.Errorf("%s: %.1f objects at 2x%d rows, %.1f at half that", c.name, n, rows, objects[i])
			}
			objects[i] = n
		}
	}
}

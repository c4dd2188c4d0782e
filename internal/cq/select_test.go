package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/query"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestCQMatchesSelectOverWindow: a continuous query is SELECT's
// aggregation kept registered. After every event of a seeded stream,
// each result the CQ emitted equals its group's row of a SELECT ...
// GROUP BY g over the same rows in a table, restricted to the window,
// and each row of that SELECT equals the CQ's latest result for its
// group — value for value: the inputs are integers, so the sums are
// exact and no tolerance is needed.
func TestCQMatchesSelectOverWindow(t *testing.T) {
	aggs := []AggDef{
		{Alias: "n", Kind: query.Count},
		{Alias: "sum", Kind: query.Sum, Attr: "v"},
		{Alias: "avg", Kind: query.Avg, Attr: "v"},
		{Alias: "lo", Kind: query.Min, Attr: "v"},
		{Alias: "hi", Kind: query.Max, Attr: "v"},
		{Alias: "slo", Kind: query.Min, Attr: "s"},
		{Alias: "shi", Kind: query.Max, Attr: "s"},
	}
	// The stream: g one of four values or missing, v an int missing on
	// about one event in eight, s a string, events 0 to 3 s apart.
	const n = 2000
	rng := rand.New(rand.NewSource(45))
	evs := make([]*event.Event, n)
	at := t0
	for i := range evs {
		attrs := map[string]val.Value{"s": val.String(fmt.Sprintf("s%02d", rng.Intn(40)))}
		if k := rng.Intn(5); k < 4 {
			attrs["g"] = val.String([]string{"a", "b", "c", "d"}[k])
		}
		if rng.Intn(8) != 0 {
			attrs["v"] = val.Int(int64(rng.Intn(201) - 100))
		}
		evs[i] = &event.Event{Type: "reading", Time: at, Attrs: attrs}
		at = at.Add(time.Duration(rng.Intn(4)) * time.Second)
	}

	for _, tc := range []struct {
		name   string
		window Window
		// from is the first seq of the window that ends at event i.
		from func(i int) int
	}{
		// WHERE seq > i-16
		{"count", Window{Kind: CountWindow, Size: 16}, func(i int) int { return i - 15 }},
		// WHERE ts > t_i - 10s, as the seq bound it selects: ts never
		// decreases with seq.
		{"time", Window{Kind: TimeWindow, Duration: 10 * time.Second}, func(i int) int {
			cutoff := evs[i].Time.Add(-10 * time.Second)
			return sort.Search(i+1, func(j int) bool { return evs[j].Time.After(cutoff) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := New(Def{Name: "w", GroupBy: []string{"g"}, Aggs: aggs, Window: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			db := windowTable(t)
			latest := map[string]map[string]val.Value{} // group key → the CQ's last result
			for i, ev := range evs {
				row := map[string]val.Value{"seq": val.Int(int64(i)), "ts": val.Time(ev.Time)}
				for _, c := range []string{"g", "v", "s"} {
					row[c], _ = ev.Get(c)
				}
				if _, err := db.Insert("w", row); err != nil {
					t.Fatal(err)
				}
				sel := query.New("w").Where(fmt.Sprintf("seq >= %d", tc.from(i))).GroupBy("g")
				for _, a := range aggs {
					sel.Agg(a.Alias, a.Kind, a.Attr)
				}
				res, err := sel.Run(db)
				if err != nil {
					t.Fatal(err)
				}
				rows := map[string]int{}
				for r := range res.Rows {
					g, _ := res.Get(r, "g")
					rows[string(val.AppendKey(nil, g))] = r
				}

				for _, out := range q.Feed(ev) {
					g, _ := out.Get("g")
					key := string(val.AppendKey(nil, g))
					r, ok := rows[key]
					if !ok {
						t.Fatalf("event %d: the CQ emitted group %v, which SELECT does not have", i, g)
					}
					for _, a := range aggs {
						want, _ := res.Get(r, a.Alias)
						if got := out.Attrs[a.Alias]; !sameValue(got, want) {
							t.Fatalf("event %d group %v %s: CQ emitted %v, SELECT %v", i, g, a.Alias, got, want)
						}
					}
					latest[key] = out.Attrs
				}
				for key, r := range rows {
					g, _ := res.Get(r, "g")
					got, ok := latest[key]
					if !ok {
						t.Fatalf("event %d: SELECT has group %v, for which the CQ emitted nothing", i, g)
					}
					for _, a := range aggs {
						if want, _ := res.Get(r, a.Alias); !sameValue(got[a.Alias], want) {
							t.Fatalf("event %d group %v %s: CQ's latest %v, SELECT %v", i, g, a.Alias, got[a.Alias], want)
						}
					}
				}
				if len(rows) != len(q.groups) {
					t.Fatalf("event %d: SELECT has %d groups, the CQ %d", i, len(rows), len(q.groups))
				}
			}
		})
	}
}

// windowTable creates the table the stream is mirrored into.
func windowTable(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := storage.NewSchema("w", []storage.Column{
		{Name: "seq", Kind: val.KindInt, NotNull: true},
		{Name: "ts", Kind: val.KindTime},
		{Name: "g", Kind: val.KindString},
		{Name: "v", Kind: val.KindInt},
		{Name: "s", Kind: val.KindString},
	}, "seq")
	if err == nil {
		err = db.CreateTable(schema)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sameValue reports whether two values are the same value of the same
// kind.
func sameValue(a, b val.Value) bool {
	return a.Kind() == b.Kind() && (a.IsNull() || val.Equal(a, b))
}

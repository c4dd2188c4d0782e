package cq

import (
	"math"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/query"
	"eventdb/internal/val"
)

var t0 = time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)

func mk(offsetSec int, attrs map[string]any) *event.Event {
	ev := event.New("reading", attrs)
	ev.Time = t0.Add(time.Duration(offsetSec) * time.Second)
	return ev
}

func getF(t *testing.T, ev *event.Event, name string) float64 {
	t.Helper()
	v, ok := ev.Get(name)
	if !ok {
		t.Fatalf("attr %q missing: %v", name, ev)
	}
	f, ok := v.AsFloat()
	if !ok {
		t.Fatalf("attr %q not numeric: %v", name, v)
	}
	return f
}

func TestCountWindowSlidingAvg(t *testing.T) {
	q, err := New(Def{
		Name:   "avg3",
		Aggs:   []AggDef{{Alias: "m", Kind: query.Avg, Attr: "v"}},
		Window: Window{Kind: CountWindow, Size: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 2, 3, 4, 5}
	wantAvg := []float64{1, 1.5, 2, 3, 4}
	for i, v := range vals {
		out := q.Feed(mk(i, map[string]any{"v": v}))
		if len(out) != 1 {
			t.Fatalf("step %d: %d result events", i, len(out))
		}
		if got := getF(t, out[0], "m"); math.Abs(got-wantAvg[i]) > 1e-9 {
			t.Errorf("step %d: avg = %v, want %v", i, got, wantAvg[i])
		}
	}
	if len(q.entries) != 3 {
		t.Errorf("window len = %d", len(q.entries))
	}
}

func TestTimeWindow(t *testing.T) {
	q, _ := New(Def{
		Name:   "sum10s",
		Aggs:   []AggDef{{Alias: "s", Kind: query.Sum, Attr: "v"}},
		Window: Window{Kind: TimeWindow, Duration: 10 * time.Second},
	})
	q.Feed(mk(0, map[string]any{"v": 1}))
	q.Feed(mk(5, map[string]any{"v": 2}))
	out := q.Feed(mk(12, map[string]any{"v": 4})) // evicts t=0 (12-10=2 cutoff)
	if got := getF(t, out[0], "s"); got != 6 {
		t.Errorf("sum = %v, want 6 (2+4)", got)
	}
	out = q.Feed(mk(30, map[string]any{"v": 8})) // everything else evicted
	if got := getF(t, out[0], "s"); got != 8 {
		t.Errorf("sum = %v, want 8", got)
	}
}

func TestGroupBy(t *testing.T) {
	q, _ := New(Def{
		Name:    "bysym",
		GroupBy: []string{"sym"},
		Aggs:    []AggDef{{Alias: "n", Kind: query.Count}, {Alias: "avg", Kind: query.Avg, Attr: "v"}},
		Window:  Window{Kind: CountWindow, Size: 4},
	})
	q.Feed(mk(0, map[string]any{"sym": "A", "v": 10}))
	q.Feed(mk(1, map[string]any{"sym": "B", "v": 100}))
	out := q.Feed(mk(2, map[string]any{"sym": "A", "v": 20}))
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	if v, _ := out[0].Get("sym"); !val.Equal(v, val.String("A")) {
		t.Errorf("group = %v", v)
	}
	if got := getF(t, out[0], "avg"); got != 15 {
		t.Errorf("A avg = %v", got)
	}
	if got := getF(t, out[0], "n"); got != 2 {
		t.Errorf("A count = %v", got)
	}
	// Eviction of one group's entry dirties that group too.
	q.Feed(mk(3, map[string]any{"sym": "B", "v": 200}))
	out = q.Feed(mk(4, map[string]any{"sym": "B", "v": 300})) // evicts A@0
	groups := map[string]bool{}
	for _, ev := range out {
		v, _ := ev.Get("sym")
		s, _ := v.AsString()
		groups[s] = true
	}
	if !groups["A"] || !groups["B"] {
		t.Errorf("dirty groups = %v, want A and B", groups)
	}
}

func TestMinMaxWithEviction(t *testing.T) {
	q, _ := New(Def{
		Name:   "minmax",
		Aggs:   []AggDef{{Alias: "lo", Kind: query.Min, Attr: "v"}, {Alias: "hi", Kind: query.Max, Attr: "v"}},
		Window: Window{Kind: CountWindow, Size: 3},
	})
	feed := func(v float64) *event.Event {
		out := q.Feed(mk(int(v), map[string]any{"v": v}))
		return out[0]
	}
	feed(5)
	feed(1)
	ev := feed(9) // window {5,1,9}
	if getF(t, ev, "lo") != 1 || getF(t, ev, "hi") != 9 {
		t.Errorf("lo/hi = %v/%v", getF(t, ev, "lo"), getF(t, ev, "hi"))
	}
	ev = feed(4) // evicts 5 → {1,9,4}
	if getF(t, ev, "lo") != 1 || getF(t, ev, "hi") != 9 {
		t.Errorf("after evict 5: lo/hi = %v/%v", getF(t, ev, "lo"), getF(t, ev, "hi"))
	}
	ev = feed(2) // evicts 1 (the min) → {9,4,2}: min must be recomputed
	if getF(t, ev, "lo") != 2 || getF(t, ev, "hi") != 9 {
		t.Errorf("after evict min: lo/hi = %v/%v", getF(t, ev, "lo"), getF(t, ev, "hi"))
	}
	ev = feed(3) // evicts 9 (the max) → {4,2,3}
	if getF(t, ev, "lo") != 2 || getF(t, ev, "hi") != 4 {
		t.Errorf("after evict max: lo/hi = %v/%v", getF(t, ev, "lo"), getF(t, ev, "hi"))
	}
}

func TestDefValidation(t *testing.T) {
	base := Def{Name: "x", Aggs: []AggDef{{Alias: "n", Kind: query.Count}},
		Window: Window{Kind: CountWindow, Size: 1}}
	ok := base
	if _, err := New(ok); err != nil {
		t.Errorf("valid def rejected: %v", err)
	}
	bad := base
	bad.Name = ""
	if _, err := New(bad); err == nil {
		t.Error("empty name accepted")
	}
	bad = base
	bad.Aggs = nil
	if _, err := New(bad); err == nil {
		t.Error("no aggs accepted")
	}
	bad = base
	bad.Window = Window{Kind: CountWindow, Size: 0}
	if _, err := New(bad); err == nil {
		t.Error("zero window accepted")
	}
	bad = base
	bad.Window = Window{Kind: TimeWindow}
	if _, err := New(bad); err == nil {
		t.Error("zero duration accepted")
	}
	bad = base
	bad.Window = Window{Kind: WindowKind(9), Size: 1}
	if _, err := New(bad); err == nil {
		t.Error("unknown window kind accepted")
	}
}

func TestNullValuesSkipped(t *testing.T) {
	q, _ := New(Def{
		Name:   "nulls",
		Aggs:   []AggDef{{Alias: "s", Kind: query.Sum, Attr: "v"}, {Alias: "n", Kind: query.Count}},
		Window: Window{Kind: CountWindow, Size: 10},
	})
	q.Feed(mk(0, map[string]any{"v": 1}))
	out := q.Feed(mk(1, map[string]any{"other": 9})) // v missing → null
	if got := getF(t, out[0], "s"); got != 1 {
		t.Errorf("sum with null = %v", got)
	}
	// Count(*) counts all events regardless.
	if got := getF(t, out[0], "n"); got != 2 {
		t.Errorf("count = %v", got)
	}
}

// TestNonNumbersSkipped: a sum or avg leaves out a value that is not a
// number, on the way in and on the way out of the window, while count
// still counts the event.
func TestNonNumbersSkipped(t *testing.T) {
	q, _ := New(Def{
		Name: "mixed",
		Aggs: []AggDef{
			{Alias: "s", Kind: query.Sum, Attr: "v"},
			{Alias: "a", Kind: query.Avg, Attr: "v"},
			{Alias: "n", Kind: query.Count},
		},
		Window: Window{Kind: CountWindow, Size: 2},
	})
	q.Feed(mk(0, map[string]any{"v": "high"}))
	out := q.Feed(mk(1, map[string]any{"v": 4}))
	if s, a, n := getF(t, out[0], "s"), getF(t, out[0], "a"), getF(t, out[0], "n"); s != 4 || a != 4 || n != 2 {
		t.Errorf("with a string in the window: sum %v avg %v count %v, want 4 4 2", s, a, n)
	}
	out = q.Feed(mk(2, map[string]any{"v": 6})) // evicts the string
	if s, a := getF(t, out[0], "s"), getF(t, out[0], "a"); s != 10 || a != 5 {
		t.Errorf("after the string left: sum %v avg %v, want 10 5", s, a)
	}
}

package cq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/val"
)

// recomputed is the naive baseline for continuous queries: every
// aggregate of one group computed by scanning the whole window, the way
// Def.Recompute made a CQ answer until the product kept only the
// incremental accumulators. It is the oracle those are held to and the
// other arm of the cost comparison.
func recomputed(q *CQ, key string) map[string]val.Value {
	attrs := make(map[string]val.Value, len(q.def.Aggs))
	for i, a := range q.def.Aggs {
		var count int64
		var sum float64
		best := val.Null
		for _, en := range q.entries {
			if en.key != key {
				continue
			}
			v := en.vals[i]
			if v.IsNull() {
				continue
			}
			count++
			if f, ok := v.AsFloat(); ok {
				sum += f
			}
			if best.IsNull() ||
				(a.Kind == Min && val.Less(v, best)) ||
				(a.Kind == Max && val.Less(best, v)) {
				best = v
			}
		}
		switch a.Kind {
		case Count:
			attrs[a.Alias] = val.Int(count)
		case Sum:
			if count == 0 {
				attrs[a.Alias] = val.Null
			} else {
				attrs[a.Alias] = val.Float(sum)
			}
		case Avg:
			if count == 0 {
				attrs[a.Alias] = val.Null
			} else {
				attrs[a.Alias] = val.Float(sum / float64(count))
			}
		case Min, Max:
			attrs[a.Alias] = best
		}
	}
	return attrs
}

// sameAgg reports whether an incremental and a recomputed aggregate
// agree: both null, or numerically equal within float-summation error.
func sameAgg(a, b val.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	fa, _ := a.AsFloat()
	fb, _ := b.AsFloat()
	return math.Abs(fa-fb) <= 1e-6
}

// TestIncrementalMatchesRecompute: after every event, each live group's
// accumulators — and each result event the step emitted — equal what a
// scan of the window gives.
func TestIncrementalMatchesRecompute(t *testing.T) {
	q, err := New(Def{
		Name:    "inc",
		GroupBy: []string{"g"},
		Aggs: []AggDef{
			{Alias: "n", Kind: Count},
			{Alias: "s", Kind: Sum, Attr: "v"},
			{Alias: "a", Kind: Avg, Attr: "v"},
			{Alias: "lo", Kind: Min, Attr: "v"},
			{Alias: "hi", Kind: Max, Attr: "v"},
		},
		Window: Window{Kind: CountWindow, Size: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		outs, err := q.Feed(mk(step, map[string]any{
			"g": []string{"x", "y", "z"}[rng.Intn(3)],
			"v": float64(rng.Intn(100)),
		}))
		if err != nil {
			t.Fatal(err)
		}
		emitted := map[string]map[string]val.Value{}
		for _, ev := range outs {
			g, _ := ev.Get("g")
			name, _ := g.AsString()
			emitted[name] = ev.Attrs
		}
		for key, gs := range q.groups {
			name, _ := gs.keyVs[0].AsString()
			want := recomputed(q, key)
			for i, a := range q.def.Aggs {
				if got := q.aggValue(gs, i, a.Kind); !sameAgg(got, want[a.Alias]) {
					t.Fatalf("step %d group %q agg %q: accumulator %v, window scan %v", step, name, a.Alias, got, want[a.Alias])
				}
				if attrs, ok := emitted[name]; ok && !sameAgg(attrs[a.Alias], want[a.Alias]) {
					t.Fatalf("step %d group %q agg %q: emitted %v, window scan %v", step, name, a.Alias, attrs[a.Alias], want[a.Alias])
				}
			}
			delete(emitted, name)
		}
		if len(emitted) > 0 {
			t.Fatalf("step %d: results for groups not in the window: %v", step, emitted)
		}
	}
}

// BenchmarkE6CQRecompute is the recompute arm of the root package's
// BenchmarkE6CQ (same query, same stream): each event's results are
// recomputed from the window instead of read off the accumulators. The
// accumulators are still kept — O(1) beside the O(window) scan.
func BenchmarkE6CQRecompute(b *testing.B) {
	for _, w := range []int{1024, 16384} { // 65536 takes too long per op for CI
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			q, err := New(Def{
				Name:    "bench",
				GroupBy: []string{"sym"},
				Aggs: []AggDef{
					{Alias: "n", Kind: Count},
					{Alias: "avg", Kind: Avg, Attr: "price"},
				},
				Window: Window{Kind: CountWindow, Size: w},
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			next := func() *event.Event { // a seeded feed: 8 symbols, prices around 100
				return event.New("trade", map[string]any{
					"sym": fmt.Sprintf("SYM%03d", rng.Intn(8)), "price": 100 + rng.NormFloat64()})
			}
			for i := 0; i < w; i++ {
				q.Feed(next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Feed(next()); err != nil {
					b.Fatal(err)
				}
				// One event dirties its own group and the evicted entry's.
				last := q.entries[len(q.entries)-1]
				recomputed(q, last.key)
			}
		})
	}
}

package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/val"
)

var t0 = time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)

// mk creates an event at t0+offset seconds.
func mk(typ string, offsetSec int, attrs map[string]any) *event.Event {
	ev := event.New(typ, attrs)
	ev.Time = t0.Add(time.Duration(offsetSec) * time.Second)
	return ev
}

func feedAll(m *oracle, evs ...*event.Event) []*Match {
	var out []*Match
	for _, ev := range evs {
		out = append(out, m.Feed(ev)...)
	}
	return out
}

// eachMatcher runs one pattern over one stream through the matcher that
// ships (a one-pattern Shared) and through the oracle, and hands each
// result to check: a semantic case passes only if both agree with it.
func eachMatcher(t *testing.T, p *Pattern, evs []*event.Event, check func(t *testing.T, got []*Match)) {
	t.Helper()
	t.Run("shared", func(t *testing.T) {
		s := NewShared()
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
		check(t, feedShared(s, evs...))
	})
	t.Run("oracle", func(t *testing.T) {
		check(t, feedAll(newOracle(p), evs...))
	})
}

func intAttr(ev *event.Event, name string) int64 {
	v, _ := ev.Get(name)
	n, _ := v.AsInt()
	return n
}

// TestSemantics is the table of hand-written cases for the pattern
// language: every row states a pattern, a stream, how many matches it
// must produce and, where it matters, which events they bind.
func TestSemantics(t *testing.T) {
	ab := func() *Builder { return NewPattern("ab").Next("a", "A", "").Next("b", "B", "") }
	abab := []*event.Event{
		mk("A", 0, map[string]any{"n": 1}),
		mk("A", 1, map[string]any{"n": 2}),
		mk("B", 2, map[string]any{"n": 3}),
		mk("B", 3, map[string]any{"n": 4}),
	}
	cases := []struct {
		name    string
		pattern *Pattern
		events  []*event.Event
		want    int
		check   func(t *testing.T, m *Match) // on the first match; may be nil
	}{
		{
			name:    "simple sequence",
			pattern: ab().MustBuild(),
			events:  []*event.Event{mk("A", 0, nil), mk("X", 1, nil), mk("B", 2, nil)},
			want:    1,
			check: func(t *testing.T, m *Match) {
				if m.Pattern != "ab" || m.Bindings["a"].Type != "A" || m.Bindings["b"].Type != "B" {
					t.Errorf("match = %+v", m)
				}
				if !m.Start.Equal(t0) || !m.End.Equal(t0.Add(2*time.Second)) {
					t.Errorf("start/end = %v/%v", m.Start, m.End)
				}
			},
		},
		{
			// Skip-till-next only skips an event the step rejects: 9 is not
			// a rise over 11, so the run survives it and 12 completes
			// (10, 11, 12).
			name: "guards across steps",
			pattern: NewPattern("rise").
				Next("a", "trade", "sym = 'ACME'").
				Next("b", "trade", "sym = 'ACME' AND price > a.price").
				Next("c", "trade", "sym = 'ACME' AND price > b.price").
				MustBuild(),
			events: []*event.Event{
				mk("trade", 0, map[string]any{"sym": "ACME", "price": 10}),
				mk("trade", 1, map[string]any{"sym": "OTHER", "price": 99}),
				mk("trade", 2, map[string]any{"sym": "ACME", "price": 11}),
				mk("trade", 3, map[string]any{"sym": "ACME", "price": 9}),
				mk("trade", 4, map[string]any{"sym": "ACME", "price": 12}),
			},
			want: 1,
			check: func(t *testing.T, m *Match) {
				a, b, c := intAttr(m.Bindings["a"], "price"), intAttr(m.Bindings["b"], "price"), intAttr(m.Bindings["c"], "price")
				if a != 10 || b != 11 || c != 12 {
					t.Errorf("prices = %d %d %d", a, b, c)
				}
			},
		},
		{
			name:    "within window",
			pattern: ab().Within(5 * time.Second).MustBuild(),
			events: []*event.Event{
				mk("A", 0, nil),
				mk("B", 10, nil), // too late for the first A
				mk("A", 11, nil),
				mk("B", 14, nil), // within 5s of the second A
			},
			want: 1,
			check: func(t *testing.T, m *Match) {
				if !m.Start.Equal(t0.Add(11 * time.Second)) {
					t.Errorf("matched the expired run: start=%v", m.Start)
				}
			},
		},
		{
			name:    "strict contiguity",
			pattern: ab().Strategy(Strict).MustBuild(),
			events: []*event.Event{
				mk("A", 0, nil),
				mk("X", 1, nil), // breaks contiguity
				mk("B", 2, nil),
				mk("A", 3, nil),
				mk("B", 4, nil), // contiguous: matches
			},
			want: 1,
			check: func(t *testing.T, m *Match) {
				if !m.Start.Equal(t0.Add(3 * time.Second)) {
					t.Errorf("wrong run matched: %v", m.Start)
				}
			},
		},
		{
			// A1 A2 B1 B2: every A before every B, (A1,B1) (A2,B1) (A1,B2)
			// (A2,B2).
			name:    "skip-till-any forks",
			pattern: ab().Strategy(SkipTillAny).MustBuild(),
			events:  abab,
			want:    4,
		},
		{
			// The same stream, single path: A1 and A2 both wait for a B, B1
			// completes both and consumes them, B2 finds nothing waiting.
			name:    "skip-till-next consumes",
			pattern: ab().Strategy(SkipTillNext).MustBuild(),
			events:  abab,
			want:    2,
		},
		{
			// order → shipped with no cancel of that order in between.
			name: "negation",
			pattern: NewPattern("fulfilled").
				Next("o", "order", "").
				Unless("c", "cancel", "c.oid = o.oid").
				Next("s", "shipped", "s.oid = o.oid").
				MustBuild(),
			events: []*event.Event{
				mk("order", 0, map[string]any{"oid": 1}),
				mk("cancel", 1, map[string]any{"oid": 1}),
				mk("shipped", 2, map[string]any{"oid": 1}), // cancelled: no match
				mk("order", 3, map[string]any{"oid": 2}),
				mk("cancel", 4, map[string]any{"oid": 99}), // another order's cancel
				mk("shipped", 5, map[string]any{"oid": 2}), // match
			},
			want: 1,
			check: func(t *testing.T, m *Match) {
				if oid := intAttr(m.Bindings["o"], "oid"); oid != 2 {
					t.Errorf("matched order %d", oid)
				}
			},
		},
		{
			name:    "any-type step",
			pattern: NewPattern("anything").Next("a", "", "v > 5").MustBuild(),
			events: []*event.Event{
				mk("X", 0, map[string]any{"v": 3}),
				mk("Y", 1, map[string]any{"v": 7}),
			},
			want: 1,
			check: func(t *testing.T, m *Match) {
				if m.Bindings["a"].Type != "Y" {
					t.Errorf("bound %s", m.Bindings["a"].Type)
				}
			},
		},
		{
			name:    "single-step pattern matches every event",
			pattern: NewPattern("one").Next("a", "A", "").MustBuild(),
			events:  []*event.Event{mk("A", 0, nil), mk("A", 1, nil), mk("B", 2, nil)},
			want:    2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachMatcher(t, tc.pattern, tc.events, func(t *testing.T, got []*Match) {
				if len(got) != tc.want {
					t.Fatalf("matches = %d, want %d", len(got), tc.want)
				}
				if tc.check != nil {
					tc.check(t, got[0])
				}
			})
		})
	}
}

func TestMatchEventRendering(t *testing.T) {
	s := NewShared()
	if err := s.Add(NewPattern("ab").Next("a", "A", "").Next("b", "B", "").MustBuild()); err != nil {
		t.Fatal(err)
	}
	got := feedShared(s,
		mk("A", 0, map[string]any{"x": 1}),
		mk("B", 1, map[string]any{"y": 2}),
	)
	if len(got) != 1 {
		t.Fatal("no match")
	}
	ev := got[0].Event()
	if ev.Type != "cep.ab" {
		t.Errorf("type = %q", ev.Type)
	}
	if v, _ := ev.Get("a_x"); !val.Equal(v, val.Int(1)) {
		t.Errorf("a_x = %v", v)
	}
	if v, _ := ev.Get("b_y"); !val.Equal(v, val.Int(2)) {
		t.Errorf("b_y = %v", v)
	}
	if v, _ := ev.Get("pattern"); !val.Equal(v, val.String("ab")) {
		t.Errorf("pattern attr = %v", v)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewPattern("x").Build(); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := NewPattern("x").Next("", "A", "").Build(); err == nil {
		t.Error("empty alias accepted")
	}
	if _, err := NewPattern("x").Next("a", "A", "").Next("a", "B", "").Build(); err == nil {
		t.Error("duplicate alias accepted")
	}
	if _, err := NewPattern("x").Next("a", "A", "((").Build(); err == nil {
		t.Error("bad guard accepted")
	}
	if _, err := NewPattern("x").Unless("n", "N", "").Next("a", "A", "").Build(); err == nil {
		t.Error("leading negation accepted")
	}
	if _, err := NewPattern("x").Next("a", "A", "").Unless("n", "N", "").Build(); err == nil {
		t.Error("trailing negation accepted")
	}
}

// TestSkipTillAnyAgainstBruteForce cross-checks both matchers against a
// brute-force subsequence enumerator on random streams.
func TestSkipTillAnyAgainstBruteForce(t *testing.T) {
	p := NewPattern("abc").
		Next("a", "A", "").
		Next("b", "B", "b.v > a.v").
		Next("c", "C", "c.v > b.v").
		Strategy(SkipTillAny).
		Within(10 * time.Second).
		MustBuild()

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var evs []*event.Event
		for i := 0; i < 18; i++ {
			typ := []string{"A", "B", "C"}[rng.Intn(3)]
			evs = append(evs, mk(typ, i, map[string]any{"v": rng.Intn(6)}))
		}

		// Brute force: all index triples i<j<k.
		brute := 0
		for i := 0; i < len(evs); i++ {
			if evs[i].Type != "A" {
				continue
			}
			for j := i + 1; j < len(evs); j++ {
				if evs[j].Type != "B" || intAttr(evs[j], "v") <= intAttr(evs[i], "v") {
					continue
				}
				for k := j + 1; k < len(evs); k++ {
					if evs[k].Type != "C" || intAttr(evs[k], "v") <= intAttr(evs[j], "v") {
						continue
					}
					if evs[k].Time.Sub(evs[i].Time) <= 10*time.Second {
						brute++
					}
				}
			}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			eachMatcher(t, p, evs, func(t *testing.T, got []*Match) {
				if len(got) != brute {
					t.Errorf("nfa=%d brute=%d", len(got), brute)
				}
			})
		})
	}
}

// TestManyPatternsBounded: a burst through a batch of windowed patterns
// must not grow partial matches beyond what the window can hold.
func TestManyPatternsBounded(t *testing.T) {
	s := NewShared()
	for i := 0; i < 10; i++ {
		p := NewPattern(fmt.Sprintf("p%d", i)).
			Next("a", "trade", fmt.Sprintf("sym = 'S%d'", i)).
			Next("b", "trade", fmt.Sprintf("sym = 'S%d' AND price > a.price", i)).
			Within(time.Minute).
			MustBuild()
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		s.Feed(mk("trade", i, map[string]any{
			"sym":   fmt.Sprintf("S%d", i%10),
			"price": i % 17,
		}))
		// One event a second, a one-minute window: at most 61 starts can
		// still be alive.
		if n := s.Stats().Instances; n > 61 {
			t.Fatalf("event %d: %d live instances, window holds 61", i, n)
		}
	}
	if st := s.Stats(); st.Matches == 0 || st.Pruned == 0 {
		t.Errorf("stats = %+v, want matches and horizon pruning", st)
	}
}

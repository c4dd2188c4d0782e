package rules

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"eventdb/internal/event"
	"eventdb/internal/raceflag"
)

func mkEvent(attrs map[string]any) *event.Event {
	return event.New("test", attrs)
}

func TestMatchBasic(t *testing.T) {
	e := NewEngine()
	e.Add("hot", "temp > 30", 0, nil)
	e.Add("acme", "sym = 'ACME'", 0, nil)
	e.Add("both", "sym = 'ACME' AND temp > 30", 0, nil)

	// Through the index and through the evaluate-every-rule oracle.
	matchers := map[string]func(*event.Event) ([]*Rule, error){
		"indexed": func(ev *event.Event) ([]*Rule, error) { return e.Match(ev) },
		"naive":   func(ev *event.Event) ([]*Rule, error) { return naiveMatch(e, ev) },
	}
	for mode, match := range matchers {
		got, err := match(mkEvent(map[string]any{"sym": "ACME", "temp": 35}))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Errorf("%s: matched %d, want 3", mode, len(got))
		}
		got, _ = match(mkEvent(map[string]any{"sym": "X", "temp": 35}))
		if len(got) != 1 || got[0].Name != "hot" {
			t.Errorf("%s: matched %v", mode, names(got))
		}
		got, _ = match(mkEvent(map[string]any{"sym": "ACME", "temp": 10}))
		if len(got) != 1 || got[0].Name != "acme" {
			t.Errorf("%s: matched %v", mode, names(got))
		}
		got, _ = match(mkEvent(map[string]any{"other": 1}))
		if len(got) != 0 {
			t.Errorf("%s: matched %v on unrelated event", mode, names(got))
		}
	}
}

func names(rs []*Rule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

func TestPriorityOrder(t *testing.T) {
	e := NewEngine()
	e.Add("low", "x = 1", 1, nil)
	e.Add("high", "x = 1", 10, nil)
	e.Add("mid-b", "x = 1", 5, nil)
	e.Add("mid-a", "x = 1", 5, nil)
	got, _ := e.Match(mkEvent(map[string]any{"x": 1}))
	want := []string{"high", "mid-a", "mid-b", "low"}
	for i, w := range want {
		if got[i].Name != w {
			t.Fatalf("order = %v, want %v", names(got), want)
		}
	}
}

func TestEvalRunsActions(t *testing.T) {
	e := NewEngine()
	var fired []string
	act := func(ev *event.Event, r *Rule) { fired = append(fired, r.Name) }
	e.Add("a", "x >= 1", 2, act)
	e.Add("b", "x >= 2", 1, act)
	n, err := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 5}))
	if err != nil || n != 2 {
		t.Fatalf("Eval = %d, %v", n, err)
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Errorf("fired = %v", fired)
	}
}

func TestAddRemoveReplace(t *testing.T) {
	e := NewEngine()
	if _, err := e.Add("r", "x = 1", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("r", "x = 2", 0, nil); err == nil {
		t.Error("duplicate add accepted")
	}
	if _, err := e.Add("bad", "((", 0, nil); err == nil {
		t.Error("bad condition accepted")
	}
	got, _ := e.Match(mkEvent(map[string]any{"x": 1}))
	if len(got) != 1 {
		t.Fatalf("match before replace = %v", names(got))
	}
	if _, err := e.Replace("r", "x = 2", 0, nil); err != nil {
		t.Fatal(err)
	}
	got, _ = e.Match(mkEvent(map[string]any{"x": 1}))
	if len(got) != 0 {
		t.Errorf("old condition still matches after replace")
	}
	got, _ = e.Match(mkEvent(map[string]any{"x": 2}))
	if len(got) != 1 {
		t.Errorf("new condition does not match")
	}
	if err := e.Remove("r"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("r"); err == nil {
		t.Error("double remove accepted")
	}
	got, _ = e.Match(mkEvent(map[string]any{"x": 2}))
	if len(got) != 0 {
		t.Errorf("removed rule still matches")
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestRangeIndexedRules(t *testing.T) {
	e := NewEngine()
	e.Add("band1", "price >= 10 AND price < 20", 0, nil)
	e.Add("band2", "price >= 20 AND price < 30", 0, nil)
	e.Add("open", "price > 100", 0, nil)
	e.Add("upper", "price <= 5", 0, nil)

	cases := []struct {
		price float64
		want  []string
	}{
		{15, []string{"band1"}},
		{20, []string{"band2"}},
		{25, []string{"band2"}},
		{101, []string{"open"}},
		{100, nil},
		{5, []string{"upper"}},
		{3, []string{"upper"}},
		{50, nil},
	}
	for _, tc := range cases {
		got, err := e.Match(mkEvent(map[string]any{"price": tc.price}))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Errorf("price=%v matched %v, want %v", tc.price, names(got), tc.want)
			continue
		}
		for i, w := range tc.want {
			if got[i].Name != w {
				t.Errorf("price=%v matched %v, want %v", tc.price, names(got), tc.want)
			}
		}
	}
}

func TestResidualRulesAlwaysEvaluated(t *testing.T) {
	e := NewEngine()
	// No indexable conjunct: disjunction and function call.
	e.Add("or", "sym = 'A' OR sym = 'B'", 0, nil)
	e.Add("fn", "lower(sym) = 'c'", 0, nil)
	got, _ := e.Match(mkEvent(map[string]any{"sym": "B"}))
	if len(got) != 1 || got[0].Name != "or" {
		t.Errorf("matched %v", names(got))
	}
	got, _ = e.Match(mkEvent(map[string]any{"sym": "C"}))
	if len(got) != 1 || got[0].Name != "fn" {
		t.Errorf("matched %v", names(got))
	}
}

func TestIndexIsPureOptimizationQuick(t *testing.T) {
	// Random rule sets + random events: the index and the
	// evaluate-every-rule oracle must agree exactly.
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		syms := []string{"A", "B", "C", "D"}
		for i := 0; i < 50; i++ {
			var cond string
			switch rng.Intn(4) {
			case 0:
				cond = fmt.Sprintf("sym = '%s'", syms[rng.Intn(len(syms))])
			case 1:
				lo := rng.Intn(50)
				cond = fmt.Sprintf("price >= %d AND price < %d", lo, lo+rng.Intn(20)+1)
			case 2:
				cond = fmt.Sprintf("sym = '%s' AND price > %d", syms[rng.Intn(len(syms))], rng.Intn(60))
			case 3:
				cond = fmt.Sprintf("sym = '%s' OR price > %d", syms[rng.Intn(len(syms))], rng.Intn(60))
			}
			name := fmt.Sprintf("r%d", i)
			if _, err := e.Add(name, cond, rng.Intn(3), nil); err != nil {
				return false
			}
		}
		for j := 0; j < 50; j++ {
			ev := mkEvent(map[string]any{
				"sym":   syms[rng.Intn(len(syms))],
				"price": rng.Intn(80),
			})
			a, err1 := e.Match(ev)
			b, err2 := naiveMatch(e, ev)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			an, bn := names(a), names(b)
			seen := map[string]bool{}
			for _, n := range an {
				seen[n] = true
			}
			for _, n := range bn {
				if !seen[n] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestChurnKeepsIndexConsistent(t *testing.T) {
	e := NewEngine()
	// Interleave add/remove with matching; every state must be correct.
	for round := 0; round < 100; round++ {
		name := fmt.Sprintf("r%d", round%10)
		if round%2 == 0 {
			e.Replace(name, fmt.Sprintf("x = %d", round%5), 0, nil)
		} else {
			_ = e.Remove(name)
		}
		for x := 0; x < 5; x++ {
			got, err := e.Match(mkEvent(map[string]any{"x": x}))
			if err != nil {
				t.Fatal(err)
			}
			// Verify against ground truth: every present rule with
			// matching literal.
			want := 0
			for _, rn := range e.Rules() {
				var rx int
				fmt.Sscanf(rn, "r%d", &rx)
				// Reconstruct the condition's literal by re-matching: we
				// just trust the engine's Rules+Match agreement below.
				_ = rx
			}
			_ = want
			for _, r := range got {
				if r.Source != fmt.Sprintf("x = %d", x) {
					t.Fatalf("round %d: rule %q (%s) matched x=%d", round, r.Name, r.Source, x)
				}
			}
		}
	}
}

func TestErrorsPropagateFromConditions(t *testing.T) {
	e := NewEngine()
	// Residual rule with a type error against this event.
	e.Add("bad", "lower(x) = 'a'", 0, nil)
	if _, err := e.Match(mkEvent(map[string]any{"x": 5})); err == nil {
		t.Error("type error not propagated")
	}
}

func TestMatcherAgreesWithMatch(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Add(fmt.Sprintf("eq%d", i), fmt.Sprintf("site = 'site%d'", i%10), i%3, nil)
		e.Add(fmt.Sprintf("rng%d", i), fmt.Sprintf("level > %d", i%7), 0, nil)
	}
	e.Add("residual", "lower(site) != 'zzz'", 0, nil)
	m := e.NewMatcher()
	for i := 0; i < 30; i++ {
		ev := mkEvent(map[string]any{"site": fmt.Sprintf("site%d", i%12), "level": i % 9})
		want, err := e.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("event %d: matcher found %d rules, Match found %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d: rule %d differs: %s vs %s", i, j, got[j].Name, want[j].Name)
			}
		}
	}
}

func TestMatcherEvalRunsActions(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Add("hot", "temp > 30", 0, func(*event.Event, *Rule) { fired++ })
	m := e.NewMatcher()
	total := 0
	for _, ev := range []*event.Event{
		mkEvent(map[string]any{"temp": 35}),
		mkEvent(map[string]any{"temp": 10}),
		mkEvent(map[string]any{"temp": 40}),
	} {
		n, err := m.Eval(ev)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 2 || fired != 2 {
		t.Errorf("total=%d fired=%d, want 2/2", total, fired)
	}
}

func TestMatcherSeesRuleChurn(t *testing.T) {
	e := NewEngine()
	m := e.NewMatcher()
	ev := mkEvent(map[string]any{"x": 1})
	if got, _ := m.Match(ev); len(got) != 0 {
		t.Fatalf("matched %d in empty engine", len(got))
	}
	e.Add("r", "x = 1", 0, nil)
	if got, _ := m.Match(ev); len(got) != 1 {
		t.Error("matcher missed rule added after creation")
	}
	e.Remove("r")
	if got, _ := m.Match(ev); len(got) != 0 {
		t.Error("matcher saw removed rule")
	}
}

// TestMatcherEpochIsolation pins that the epoch-stamped counters never
// leak candidate counts between events: alternating events that each
// partially satisfy different multi-conjunct rules must never
// accumulate across matches into a false positive.
func TestMatcherEpochIsolation(t *testing.T) {
	e := NewEngine()
	// Two equality conjuncts each: an event carrying only one of them
	// leaves a partial count that a later event must not complete.
	if _, err := e.Add("ab", "a = 1 AND b = 2", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("cd", "c = 3 AND d = 4", 0, nil); err != nil {
		t.Fatal(err)
	}
	m := e.NewMatcher()
	evs := []*event.Event{
		mkEvent(map[string]any{"a": 1, "d": 4}), // half of each rule
		mkEvent(map[string]any{"b": 2, "c": 3}), // the other halves
		mkEvent(map[string]any{"a": 1, "b": 2}), // full match of "ab"
	}
	for round := 0; round < 100; round++ {
		for i, ev := range evs {
			got, err := m.Match(ev)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if i == 2 {
				want = 1
			}
			if len(got) != want {
				t.Fatalf("round %d event %d matched %d rules, want %d", round, i, len(got), want)
			}
		}
	}
}

// TestMatcherSurvivesHeavyChurn exercises the stale-counter pruning:
// thousands of rules come and go through one matcher without wrong
// results (and without the counts map pinning every dead rule, though
// that is only observable as memory).
func TestMatcherSurvivesHeavyChurn(t *testing.T) {
	e := NewEngine()
	if _, err := e.Add("keep", "site = 'site1'", 0, nil); err != nil {
		t.Fatal(err)
	}
	m := e.NewMatcher()
	ev := mkEvent(map[string]any{"site": "site1"})
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("churn%d", i)
		if _, err := e.Add(name, "site = 'site1'", 0, nil); err != nil {
			t.Fatal(err)
		}
		got, err := m.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("iter %d: matched %d, want 2", i, len(got))
		}
		if err := e.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "keep" {
		t.Fatalf("after churn matched %v", got)
	}
}

// TestAllocsMatchSteadyState is the zero-alloc guard for the indexed
// match hot path: once a Matcher's scratch is warm, matching an event
// against a large rule set allocates nothing.
func TestAllocsMatchSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		cond := fmt.Sprintf("site = 'site%d' AND level >= %d", i%100, i%10)
		if _, err := e.Add(fmt.Sprintf("r%d", i), cond, i%3, nil); err != nil {
			t.Fatal(err)
		}
	}
	m := e.NewMatcher()
	ev := mkEvent(map[string]any{"site": "site7", "level": 5})
	// Warm the scratch (counter entries, key buffer, result slice).
	for i := 0; i < 3; i++ {
		if _, err := m.Match(ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Match(ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Match allocates %v per event, want 0", allocs)
	}
}

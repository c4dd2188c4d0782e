package rules

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	if err := e.Remove("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("r", "x = 2", 0, nil); err != nil {
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

// randomCondition draws a condition of one of the kinds the engine
// treats differently: an equality, a range, an equality anchoring a
// range, a residual disjunction, an equality to an integral float, and
// the residual match-all.
func randomCondition(rng *rand.Rand) string {
	syms := []string{"A", "B", "C", "D"}
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("sym = '%s'", syms[rng.Intn(len(syms))])
	case 1:
		lo := rng.Intn(50)
		return fmt.Sprintf("price >= %d AND price < %d", lo, lo+rng.Intn(20)+1)
	case 2:
		return fmt.Sprintf("sym = '%s' AND price > %d", syms[rng.Intn(len(syms))], rng.Intn(60))
	case 3:
		return fmt.Sprintf("sym = '%s' OR price > %d", syms[rng.Intn(len(syms))], rng.Intn(60))
	case 4:
		return fmt.Sprintf("price = %d.0", rng.Intn(80))
	}
	return "true"
}

// sameMatch holds Match to naiveMatch on one event: the same rules in
// the same order.
func sameMatch(t *testing.T, e *Engine, ev *event.Event) {
	t.Helper()
	got, err := e.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naiveMatch(e, ev)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(got)) != fmt.Sprint(names(want)) {
		t.Fatalf("%v: Match = %v, the evaluate-every-rule oracle %v", ev, names(got), names(want))
	}
}

func TestIndexIsPureOptimizationQuick(t *testing.T) {
	// Random rule sets of mixed priorities + random events: the index
	// and the evaluate-every-rule oracle must agree exactly, order
	// included.
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		for i := 0; i < 50; i++ {
			if _, err := e.Add(fmt.Sprintf("r%d", i), randomCondition(rng), rng.Intn(3), nil); err != nil {
				t.Fatal(err)
			}
		}
		// Events carry no NaN: there the index is not a pure
		// optimization (TestNaNIsAnIndexMiss).
		for j := 0; j < 50; j++ {
			var price any = rng.Intn(80)
			if j%2 == 1 {
				price = float64(price.(int))
			}
			sameMatch(t, e, mkEvent(map[string]any{
				"sym":   []string{"A", "B", "C", "D"}[rng.Intn(4)],
				"price": price,
			}))
		}
		return !t.Failed()
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestEqualNumericsShareAKey: the index keys numerics by value, so an
// equality matches every value expr's `=` calls equal to its literal —
// an int, an integral float, and −0 for 0.
func TestEqualNumericsShareAKey(t *testing.T) {
	e := NewEngine()
	for _, cond := range []string{"x = 1", "x = 1.0", "x = 0", "x = 0.0"} {
		if _, err := e.Add(cond, cond, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []any{1, 1.0, 0, 0.0, math.Copysign(0, -1), 2, 0.5} {
		sameMatch(t, e, mkEvent(map[string]any{"x": x}))
	}
}

// TestNaNIsAnIndexMiss names the one place the index is not a pure
// optimization: expr compares NaN equal to every number, so the tree
// calls both conditions true, but the index files a NaN under no key
// and inside no interval, so the engine reaches neither. NaN reaches
// matching only through the in-process API: the JSON event scanner
// refuses it.
func TestNaNIsAnIndexMiss(t *testing.T) {
	e := NewEngine()
	ev := mkEvent(map[string]any{"qty": math.NaN()})
	for _, cond := range []string{"qty = 5", "qty >= 0"} {
		if _, err := e.Add(cond, cond, 0, nil); err != nil {
			t.Fatal(err)
		}
		if ok, err := tree(cond).Match(ev); err != nil || !ok {
			t.Fatalf("tree of %q on NaN = %v, %v; want true", cond, ok, err)
		}
	}
	got, err := e.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("NaN reached %v through the index", names(got))
	}
}

// TestChurnKeepsIndexConsistent interleaves adds and removes — of
// residual rules from the middle of their order, and of names added
// again with another condition and priority — with matching; in every
// state Match agrees with the oracle, order included, and Rules lists
// the live rules in (priority desc, name) order.
func TestChurnKeepsIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	e := NewEngine()
	live := map[string]int{} // name → priority
	middle, again := 0, 0    // residual rules removed from the middle, names added again
	remove := func(name string) {
		if i := slices.Index(e.residual, e.rules[name]); i > 0 && i < len(e.residual)-1 {
			middle++
		}
		if err := e.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 1500; round++ {
		name := fmt.Sprintf("r%d", rng.Intn(64))
		if _, ok := live[name]; ok && rng.Intn(3) > 0 {
			remove(name)
			delete(live, name)
		} else {
			if ok {
				remove(name)
				again++
			}
			pri := rng.Intn(3)
			if _, err := e.Add(name, randomCondition(rng), pri, nil); err != nil {
				t.Fatal(err)
			}
			live[name] = pri
		}
		for x := 0; x < 4; x++ {
			sameMatch(t, e, mkEvent(map[string]any{
				"sym":   []string{"A", "B", "C", "D"}[x],
				"price": rng.Intn(80),
			}))
		}
		want := make([]*Rule, 0, len(live))
		for n, pri := range live {
			want = append(want, &Rule{Name: n, Priority: int32(pri)})
		}
		sortRules(want)
		if got := e.Rules(); fmt.Sprint(got) != fmt.Sprint(names(want)) {
			t.Fatalf("round %d: Rules = %v, want %v", round, got, names(want))
		}
	}
	if middle == 0 || again == 0 {
		t.Errorf("the churn removed %d residual rules from the middle and added %d names again, want both", middle, again)
	}
}

// TestRemoveKeepsRangeIndexExact: removing a range rule from the sorted
// interval structure (64 of them on one field are sorted, not staged)
// must not hide the ones after it from a stab.
func TestRemoveKeepsRangeIndexExact(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 70; i++ {
		if _, err := e.Add(fmt.Sprintf("r%d", i), fmt.Sprintf("price >= %d AND price <= %d", i, i+1), i%2, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{5, 0, 40, 69} {
		if err := e.Remove(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		for price := -1.0; price < 72; price += 0.5 {
			sameMatch(t, e, mkEvent(map[string]any{"price": price}))
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
	// And what fanout subscribes: match-all rules, held in order.
	for i := 0; i < 16; i++ {
		if _, err := e.Add(fmt.Sprintf("all%d", i), "true", 0, nil); err != nil {
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

package cep

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/raceflag"
)

func feedShared(s *Shared, evs ...*event.Event) []*Match {
	var out []*Match
	for _, ev := range evs {
		for _, m := range s.Feed(ev) {
			cp := *m
			out = append(out, &cp)
		}
	}
	return out
}

// TestSharedPrefixSharing pins the whole point of the shared automaton:
// many patterns with a common prefix cost one instance, not one each.
func TestSharedPrefixSharing(t *testing.T) {
	s := NewShared()
	const n = 500
	for i := 0; i < n; i++ {
		p := NewPattern(fmt.Sprintf("p%d", i)).
			Next("a", "A", "").
			Next("b", "B", "").
			Next("c", "C", fmt.Sprintf("k = %d", i)).
			MustBuild()
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Feed(mk("A", 0, nil))
	if got := s.Stats().Instances; got != 1 {
		t.Fatalf("instances after shared prefix = %d, want 1", got)
	}
	s.Feed(mk("B", 1, nil))
	// The a→b advance consumes the prefix instance (SkipTillNext), so
	// 500 two-step partial runs are still exactly one instance.
	if got := s.Stats().Instances; got != 1 {
		t.Fatalf("instances after two shared steps = %d, want 1", got)
	}
	// Only the matching suffix fires, via the equality index.
	ms := s.Feed(mk("C", 2, map[string]any{"k": 7}))
	if len(ms) != 1 || ms[0].Pattern != "p7" {
		t.Fatalf("matches = %v, want exactly p7", ms)
	}
}

func TestSharedDuplicateAndRemove(t *testing.T) {
	s := NewShared()
	p := NewPattern("x").Next("a", "A", "").MustBuild()
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(p); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if err := s.Remove("nope"); err == nil {
		t.Fatal("Remove of unknown pattern succeeded")
	}
	if err := s.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if got := s.Feed(mk("A", 0, nil)); len(got) != 0 {
		t.Fatalf("matches after remove = %v", got)
	}
	if st := s.Stats(); st.Patterns != 0 || st.Instances != 0 {
		t.Fatalf("stats after remove = %+v", st)
	}
}

// TestSharedRemoveKeepsSharedPrefix: removing one pattern must not
// disturb partial matches of a pattern sharing its prefix.
func TestSharedRemoveKeepsSharedPrefix(t *testing.T) {
	s := NewShared()
	p1 := NewPattern("p1").Next("a", "A", "").Next("b", "B", "").MustBuild()
	p2 := NewPattern("p2").Next("a", "A", "").Next("c", "C", "").MustBuild()
	if err := s.Add(p1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(p2); err != nil {
		t.Fatal(err)
	}
	s.Feed(mk("A", 0, nil))
	if err := s.Remove("p1"); err != nil {
		t.Fatal(err)
	}
	got := feedShared(s, mk("B", 1, nil), mk("C", 2, nil))
	if len(got) != 1 || got[0].Pattern != "p2" {
		t.Fatalf("matches = %v, want p2 only", got)
	}
}

// TestSharedLateRegistration: a pattern registered mid-stream only sees
// runs started after registration, exactly like attaching a fresh
// per-pattern matcher mid-stream.
func TestSharedLateRegistration(t *testing.T) {
	s := NewShared()
	p1 := NewPattern("p1").Next("a", "A", "").Next("b", "B", "").MustBuild()
	if err := s.Add(p1); err != nil {
		t.Fatal(err)
	}
	s.Feed(mk("A", 0, nil)) // run starts while only p1 exists
	p2 := NewPattern("p2").Next("a", "A", "").Next("b", "B", "").MustBuild()
	if err := s.Add(p2); err != nil {
		t.Fatal(err)
	}
	got := feedShared(s, mk("B", 1, nil))
	if len(got) != 1 || got[0].Pattern != "p1" {
		t.Fatalf("matches = %v, want p1 only (p2 registered after the run started)", got)
	}
	// A fresh A event is visible to both.
	got = feedShared(s, mk("A", 2, nil), mk("B", 3, nil))
	names := map[string]bool{}
	for _, m := range got {
		names[m.Pattern] = true
	}
	if len(got) != 2 || !names["p1"] || !names["p2"] {
		t.Fatalf("matches = %v, want one each of p1, p2", got)
	}
}

func TestSharedAdvanceHorizonGC(t *testing.T) {
	s := NewShared()
	p := NewPattern("ab").Next("a", "A", "").Next("b", "B", "").Within(10 * time.Second).MustBuild()
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	unbounded := NewPattern("cd").Next("c", "C", "").Next("d", "D", "").MustBuild()
	if err := s.Add(unbounded); err != nil {
		t.Fatal(err)
	}
	s.Feed(mk("A", 0, nil))
	s.Feed(mk("C", 1, nil))
	// Inside the window nothing is pruned.
	if n := s.Advance(t0.Add(5 * time.Second)); n != 0 {
		t.Fatalf("pruned inside window = %d, want 0", n)
	}
	// Exactly at the boundary the run survives (<= semantics, matching
	// the oracle's expiry), one nanosecond past it dies.
	if n := s.Advance(t0.Add(10 * time.Second)); n != 0 {
		t.Fatalf("pruned at boundary = %d, want 0", n)
	}
	if n := s.Advance(t0.Add(10*time.Second + time.Nanosecond)); n != 1 {
		t.Fatalf("pruned past boundary = %d, want 1", n)
	}
	// The unbounded pattern's instance is never horizon-pruned.
	if n := s.Advance(t0.Add(1000 * time.Hour)); n != 0 {
		t.Fatalf("pruned unbounded = %d, want 0", n)
	}
	if st := s.Stats(); st.Pruned != 1 || st.Instances != 1 {
		t.Fatalf("stats = %+v, want Pruned 1, Instances 1", st)
	}
	// The pruned run is really gone: its completion no longer fires.
	if got := s.Feed(mk("B", 3600, nil)); len(got) != 0 {
		t.Fatalf("pruned run completed anyway: %v", got)
	}
	if got := s.Feed(mk("D", 3601, nil)); len(got) != 1 {
		t.Fatalf("unbounded run lost: %v", got)
	}
}

// TestOracleAdvance pins the reference's own horizon sweep, which
// TestSharedDifferentialWithAdvance relies on.
func TestOracleAdvance(t *testing.T) {
	p := NewPattern("ab").Next("a", "A", "").Next("b", "B", "").Within(10 * time.Second).MustBuild()
	m := newOracle(p)
	m.Feed(mk("A", 0, nil))
	if n := m.Advance(t0.Add(10 * time.Second)); n != 0 {
		t.Fatalf("pruned at boundary = %d, want 0", n)
	}
	if n := m.Advance(t0.Add(11 * time.Second)); n != 1 {
		t.Fatalf("pruned past boundary = %d, want 1", n)
	}
	if len(m.runs) != 0 {
		t.Fatalf("runs = %d, want 0", len(m.runs))
	}
	// Unbounded pattern: Advance is a no-op.
	mu := newOracle(NewPattern("x").Next("a", "A", "").Next("b", "B", "").MustBuild())
	mu.Feed(mk("A", 0, nil))
	if n := mu.Advance(t0.Add(1000 * time.Hour)); n != 0 {
		t.Fatalf("unbounded Advance pruned %d", n)
	}
}

func TestSharedMaxInstances(t *testing.T) {
	s := NewShared()
	s.MaxInstances = 4
	p := NewPattern("ab").Next("a", "A", "").Next("b", "B", "").MustBuild()
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Feed(mk("A", i, nil))
	}
	st := s.Stats()
	if st.Instances != 4 || st.Dropped != 6 {
		t.Fatalf("stats = %+v, want Instances 4, Dropped 6", st)
	}
}

// matchKey canonicalizes a match for set comparison: pattern, window,
// and the bound event IDs by alias.
func matchKey(m *Match) string {
	aliases := make([]string, 0, len(m.Bindings))
	for a := range m.Bindings {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d", m.Pattern, m.Start.UnixNano(), m.End.UnixNano())
	for _, a := range aliases {
		fmt.Fprintf(&b, "|%s=%d", a, m.Bindings[a].ID)
	}
	return b.String()
}

// randomPattern draws steps from a small vocabulary so independent
// patterns share prefixes often, exercising both trie sharing and the
// type/predicate index: guards filed under one equality, two counted
// equalities, a range, an integral float, or nothing (`a.x = 1` names
// a binding, so it must not be filed).
func randomPattern(rng *rand.Rand, name string) *Pattern {
	types := []string{"A", "B", "C", "D", "E"}
	guards := []string{"", "", "x = 1", "x > 2", "y = 0", "x = a.x", "y < a.y",
		"x = 1 AND y = 0", "x >= 1 AND x < 3", "a.x = 1", "x = 1.0"}
	b := NewPattern(name)
	nPos := 1 + rng.Intn(4)
	aliases := []string{"a", "b", "c", "d"}
	for i := 0; i < nPos; i++ {
		// A negated step between positives, sometimes.
		if i > 0 && rng.Intn(4) == 0 {
			b.Unless(fmt.Sprintf("n%d", i), types[rng.Intn(len(types))], guards[rng.Intn(len(guards))])
		}
		typ := types[rng.Intn(len(types))]
		if rng.Intn(10) == 0 {
			typ = "" // wildcard step
		}
		b.Next(aliases[i], typ, guards[rng.Intn(len(guards))])
	}
	switch rng.Intn(3) {
	case 1:
		b.Strategy(SkipTillAny)
	case 2:
		b.Strategy(Strict)
	}
	if rng.Intn(2) == 0 {
		b.Within(time.Duration(1+rng.Intn(20)) * time.Second)
	}
	return b.MustBuild()
}

func randomEvents(rng *rand.Rand, n int) []*event.Event {
	types := []string{"A", "B", "C", "D", "E", "X"}
	evs := make([]*event.Event, 0, n)
	sec := 0
	for i := 0; i < n; i++ {
		sec += rng.Intn(3) // nondecreasing, frequently equal times
		evs = append(evs, mk(types[rng.Intn(len(types))], sec, map[string]any{
			"x": rng.Intn(5),
			"y": rng.Intn(5),
		}))
	}
	return evs
}

// TestSharedDifferential is the semantic pin: random pattern sets and
// event streams must produce exactly the same match set through the
// shared automaton as through one independent oracle per pattern —
// including a mid-stream registration and removal.
func TestSharedDifferential(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		nPat := 1 + rng.Intn(10)
		shared := NewShared()
		matchers := map[string]*oracle{}
		addPattern := func(name string) {
			p := randomPattern(rng, name)
			if err := shared.Add(p); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			matchers[name] = newOracle(p)
		}
		for i := 0; i < nPat; i++ {
			addPattern(fmt.Sprintf("p%d", i))
		}
		evs := randomEvents(rng, 250)
		churnAt := rng.Intn(len(evs))
		var want, got []string
		for i, ev := range evs {
			if i == churnAt {
				victim := fmt.Sprintf("p%d", rng.Intn(nPat))
				if err := shared.Remove(victim); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				delete(matchers, victim)
				addPattern("late")
			}
			for _, m := range matchers {
				for _, mt := range m.Feed(ev) {
					want = append(want, matchKey(mt))
				}
			}
			for _, mt := range shared.Feed(ev) {
				got = append(got, matchKey(mt))
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(want) != len(got) {
			t.Fatalf("trial %d: shared %d matches, independent %d\nshared: %v\nindependent: %v",
				trial, len(got), len(want), got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: match %d differs\nshared:      %s\nindependent: %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSharedDifferentialWithAdvance interleaves horizon GC with
// feeding: Advance at the stream's current time must not change the
// match set, because Feed performs the same sweep.
func TestSharedDifferentialWithAdvance(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 1))
		p := randomPattern(rng, "p")
		shared := NewShared()
		if err := shared.Add(p); err != nil {
			t.Fatal(err)
		}
		m := newOracle(p)
		var want, got []string
		for _, ev := range randomEvents(rng, 200) {
			if rng.Intn(3) == 0 {
				shared.Advance(ev.Time)
				m.Advance(ev.Time)
			}
			for _, mt := range m.Feed(ev) {
				want = append(want, matchKey(mt))
			}
			for _, mt := range shared.Feed(ev) {
				got = append(got, matchKey(mt))
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("trial %d:\nshared: %v\nindependent: %v", trial, got, want)
		}
	}
}

// TestAllocsSharedFeedNoMatch pins the zero-alloc hot path: events that
// advance nothing allocate nothing, however many patterns are
// registered.
func TestAllocsSharedFeedNoMatch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewShared()
	for i := 0; i < 1000; i++ {
		p := NewPattern(fmt.Sprintf("p%d", i)).
			Next("a", fmt.Sprintf("T%d", i%50), fmt.Sprintf("k = %d", i)).
			Next("b", "done", "k = a.k").
			Within(time.Minute).
			MustBuild()
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	evs := make([]*event.Event, 700)
	for i := range evs {
		// Registered type, never-matching key: the equality index must
		// reject it without touching any edge.
		evs[i] = mk("T3", i, map[string]any{"k": -1})
	}
	i := 0
	feed := func() {
		s.Feed(evs[i%len(evs)])
		i++
	}
	for w := 0; w < 3; w++ {
		feed()
	}
	if n := testing.AllocsPerRun(500, feed); n != 0 {
		t.Fatalf("allocs per no-match feed = %v, want 0", n)
	}
}

// TestAllocsSharedFeedSteadyState pins pooling on the advancing path:
// instances created, expired by the horizon, and reused from the pool
// allocate nothing at steady state.
func TestAllocsSharedFeedSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewShared()
	p := NewPattern("ab").Next("a", "A", "x > 0").Next("b", "B", "").Within(time.Second).MustBuild()
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	evs := make([]*event.Event, 700)
	for i := range evs {
		// Each A starts an instance; 2s later the next A's feed prunes
		// it via the timer heap and the record returns to the pool.
		evs[i] = mk("A", 2*i, map[string]any{"x": 1})
	}
	i := 0
	feed := func() {
		s.Feed(evs[i%len(evs)])
		i++
	}
	for w := 0; w < 10; w++ {
		feed()
	}
	if n := testing.AllocsPerRun(500, feed); n != 0 {
		t.Fatalf("allocs per steady-state feed = %v, want 0", n)
	}
}

// roundTripPattern is TestSpecRoundTrip's pattern, a seed of
// FuzzPatternSpec.
func roundTripPattern() *Pattern {
	return NewPattern("fraud").
		Next("a", "login", "").
		Unless("n", "logout", "user = a.user").
		Next("b", "wire", "user = a.user AND amount > 10000").
		Within(30 * time.Second).
		Strategy(SkipTillAny).
		MustBuild()
}

func TestSpecRoundTrip(t *testing.T) {
	p := roundTripPattern()
	data, err := marshalSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseSpec("fraud", data)
	if err != nil {
		t.Fatalf("round trip: %v\nspec: %s", err, data)
	}
	if p2.Name != "fraud" || len(p2.Steps) != 3 || p2.Within != 30*time.Second || p2.Strategy != SkipTillAny {
		t.Fatalf("round trip lost fields: %+v", p2)
	}
	if !p2.Steps[1].Negated || p2.Steps[2].Guard != "user = a.user AND amount > 10000" {
		t.Fatalf("round trip lost steps: %+v", p2.Steps)
	}
}

// badSpecs are the specs TestSpecErrors wants refused, seeds of
// FuzzPatternSpec.
var badSpecs = []struct{ name, spec string }{
	{"empty", `{}`},
	{"no steps", `{"steps":[]}`},
	{"unknown field", `{"steps":[{"alias":"a"}],"bogus":1}`},
	{"missing alias", `{"steps":[{"type":"A"}]}`},
	{"bad guard", `{"steps":[{"alias":"a","guard":"((("}]}`},
	{"bad within", `{"steps":[{"alias":"a"}],"within":"soon"}`},
	{"negative within", `{"steps":[{"alias":"a"}],"within":"-5s"}`},
	{"bad strategy", `{"steps":[{"alias":"a"}],"strategy":"eager"}`},
	{"starts negated", `{"steps":[{"alias":"a","negated":true},{"alias":"b"}]}`},
	{"ends negated", `{"steps":[{"alias":"a"},{"alias":"b","negated":true}]}`},
	{"dup alias", `{"steps":[{"alias":"a"},{"alias":"a"}]}`},
	{"not json", `{"steps":`},
}

func TestSpecErrors(t *testing.T) {
	for _, tc := range badSpecs {
		if _, err := ParseSpec("x", []byte(tc.spec)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", tc.name, tc.spec)
		}
	}
}

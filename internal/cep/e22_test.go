package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"eventdb/internal/event"
)

// E22: one shared automaton vs a matcher per pattern, the comparison no
// end-to-end benchmark can make because the daemon has only the first.
// Registering every pattern into one Shared collapses common prefixes
// and indexes each state's edges by event type and equality guard, so
// an event costs what it can advance; a matcher per pattern costs
// O(patterns) per event regardless of relevance. Same population, same
// stream, identical match counts.

// e22Pattern builds pattern i of the population: a two-step login→wire
// sequence over one of ntypes event types, keyed to one account by
// equality guards, inside a window.
func e22Pattern(i, ntypes int) *Pattern {
	typ := fmt.Sprintf("T%03d", i%ntypes)
	return NewPattern(fmt.Sprintf("p%d", i)).
		Next("a", typ+".login", fmt.Sprintf("acct = %d", i)).
		Next("b", typ+".wire", fmt.Sprintf("acct = %d AND amount > 1000", i)).
		Within(time.Minute).
		MustBuild()
}

// e22Events builds the stream: alternating login/wire events over the
// type and account space the patterns cover, so a fraction of accounts
// complete their sequence.
func e22Events(nev, npat, ntypes int, rng *rand.Rand) []*event.Event {
	evs := make([]*event.Event, nev)
	for i := range evs {
		acct := rng.Intn(npat)
		kind := ".login"
		if i%2 == 1 {
			kind = ".wire"
		}
		evs[i] = event.New(fmt.Sprintf("T%03d", acct%ntypes)+kind, map[string]any{
			"acct":   acct,
			"amount": rng.Intn(5000),
		})
	}
	return evs
}

// e22Arm is one side of the comparison: feed one event to every
// registered pattern, return the matches it completed.
type e22Arm func(ev *event.Event) int

// e22Shared registers npat patterns in one automaton.
func e22Shared(npat, ntypes int) e22Arm {
	s := NewShared()
	for i := 0; i < npat; i++ {
		if err := s.Add(e22Pattern(i, ntypes)); err != nil {
			panic(err) // names are distinct by construction
		}
	}
	return func(ev *event.Event) int { return len(s.Feed(ev)) }
}

// e22PerPattern builds npat oracles: every event visits every one.
func e22PerPattern(npat, ntypes int) e22Arm {
	ms := make([]*oracle, npat)
	for i := range ms {
		ms[i] = newOracle(e22Pattern(i, ntypes))
	}
	return func(ev *event.Event) int {
		n := 0
		for _, m := range ms {
			n += len(m.Feed(ev))
		}
		return n
	}
}

func TestE22ArmsAgree(t *testing.T) {
	const npat, ntypes = 50, 10
	evs := e22Events(2000, npat, ntypes, rand.New(rand.NewSource(1)))
	shared, perPattern := e22Shared(npat, ntypes), e22PerPattern(npat, ntypes)
	matches := 0
	for i, ev := range evs {
		s, p := shared(ev), perPattern(ev)
		if s != p {
			t.Fatalf("event %d: shared completed %d matches, per-pattern %d", i, s, p)
		}
		matches += s
	}
	if matches == 0 {
		t.Fatal("stream produced no matches; the arms are not exercising completion")
	}
}

// benchE22 times one pass of a 4096-event stream over 1000 patterns,
// registration excluded; ns/event is the figure to compare between the
// two arms.
func benchE22(b *testing.B, build func(npat, ntypes int) e22Arm) {
	const npat, ntypes = 1000, 100
	evs := e22Events(4096, npat, ntypes, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feed := build(npat, ntypes)
		b.StartTimer()
		for _, ev := range evs {
			feed(ev)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

func BenchmarkE22SharedFeed(b *testing.B)     { benchE22(b, e22Shared) }
func BenchmarkE22PerPatternFeed(b *testing.B) { benchE22(b, e22PerPattern) }

package cep

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// boundaryPattern draws from a vocabulary small enough that patterns of
// one strategy share their first step often and part after it, so the
// states after a shared first step hold one edge or a few, and churn
// moves them across the one-edge boundary. Guards that keep their parse
// tree repeat across patterns (the automaton shares them by source) and
// differ in one operator only, so a guard shared across two sources
// changes matches; steps may be wildcards or negated.
func boundaryPattern(rng *rand.Rand, name string) *Pattern {
	types := []string{"A", "B", ""}
	guards := []string{"", "x = 1", "x = a.x", "x != a.x", "y < a.y", "y >= a.y", "x = 1 OR y = 2"}
	b := NewPattern(name)
	b.Next("a", types[rng.Intn(2)], []string{"", "x = 1"}[rng.Intn(2)])
	for i, alias := range []string{"b", "c"}[:1+rng.Intn(2)] {
		if rng.Intn(3) == 0 {
			b.Unless(fmt.Sprintf("n%d", i), types[rng.Intn(len(types))], guards[rng.Intn(len(guards))])
		}
		b.Next(alias, types[rng.Intn(len(types))], guards[rng.Intn(len(guards))])
	}
	b.Strategy(Strategy(rng.Intn(3)))
	if rng.Intn(2) == 0 {
		b.Within(time.Duration(2+rng.Intn(10)) * time.Second)
	}
	return b.MustBuild()
}

// edgeCounts maps every state of the automaton to how many edges leave
// it, and fails if a state's index is not there exactly when it has two
// edges or more, or files an edge that is not one of the state's.
func edgeCounts(t *testing.T, s *Shared) map[*node]int {
	t.Helper()
	out := map[*node]int{}
	var walk func(n *node)
	walk = func(n *node) {
		out[n] = len(n.edges)
		if (n.ix != nil) != (len(n.edges) >= 2) {
			t.Fatalf("a state with %d edges has index %v", len(n.edges), n.ix != nil)
		}
		if n.ix != nil {
			for _, e := range n.ix.bySig {
				if !slices.Contains(n.edges, e) {
					t.Fatal("a state's index files an edge it no longer has")
				}
			}
		}
		for _, e := range n.edges {
			walk(e.to)
		}
	}
	for _, r := range s.roots {
		walk(r)
	}
	return out
}

// TestSharedOneEdgeBoundary is the differential across the one-edge
// boundary: patterns are registered and removed every few events, so
// states go from one edge to two and back while instances are parked on
// them, and after every event the shared automaton's matches must be
// the oracles'.
func TestSharedOneEdgeBoundary(t *testing.T) {
	up, down := 0, 0 // crossings seen with instances parked
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6007 + 3))
		shared := NewShared()
		oracles := map[string]*oracle{}
		next := 0
		add := func() {
			name := fmt.Sprintf("p%d", next)
			next++
			p := boundaryPattern(rng, name)
			if err := shared.Add(p); err != nil {
				t.Fatal(err)
			}
			oracles[name] = newOracle(p)
		}
		for len(oracles) < 6 {
			add()
		}
		sec := 0
		for i := 0; i < 400; i++ {
			if i%4 == 3 {
				before := edgeCounts(t, shared)
				if rng.Intn(2) == 0 && len(oracles) > 2 {
					names := make([]string, 0, len(oracles))
					for name := range oracles {
						names = append(names, name)
					}
					slices.Sort(names)
					victim := names[rng.Intn(len(names))]
					if err := shared.Remove(victim); err != nil {
						t.Fatal(err)
					}
					delete(oracles, victim)
				} else if len(oracles) < 12 {
					add()
				}
				for n, k := range edgeCounts(t, shared) {
					if was, ok := before[n]; ok && n.ninst > 0 {
						if was == 1 && k == 2 {
							up++
						} else if was == 2 && k == 1 {
							down++
						}
					}
				}
			}
			sec += rng.Intn(2)
			ev := mk([]string{"A", "B", "C"}[rng.Intn(3)], sec, map[string]any{"x": rng.Intn(3), "y": rng.Intn(3)})
			var want, got []string
			for _, m := range oracles {
				for _, mt := range m.Feed(ev) {
					want = append(want, matchKey(mt))
				}
			}
			for _, mt := range shared.Feed(ev) {
				got = append(got, matchKey(mt))
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(want, got) {
				t.Fatalf("trial %d, event %d (%s x=%v y=%v): shared matched\n%v\noracles matched\n%v",
					trial, i, ev.Type, ev.Attrs["x"], ev.Attrs["y"], got, want)
			}
		}
	}
	if up < 20 || down < 20 {
		t.Fatalf("states crossed 1→2 edges %d times and 2→1 %d times with instances parked, want 20 each", up, down)
	}
	t.Logf("crossings with instances parked: 1→2 %d, 2→1 %d", up, down)
}

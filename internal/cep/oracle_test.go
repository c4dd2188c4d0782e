package cep

import (
	"strings"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/val"
)

// The differential oracle: one independent matcher per pattern, the
// direct reading of the semantics in the package comment (a slice of
// partial runs swept on every event). It shares nothing with Shared but
// the Pattern it is given, which is what makes TestSharedDifferential*
// and the table in cep_test.go meaningful; it is test-only because its
// cost is O(patterns x runs) per event.

// run is a partial match.
type run struct {
	nextPos  int // index into p.positive
	bindings []*event.Event
	start    time.Time
}

// oracle feeds a stream through one pattern, with no cap on partial
// runs: the differential compares uncapped behaviour.
type oracle struct {
	p    *Pattern
	runs []*run
}

func newOracle(p *Pattern) *oracle { return &oracle{p: p} }

// Advance expires partial runs whose WITHIN window has passed as of
// now, returning how many were pruned. Feed performs the same sweep
// with each event's time; Advance lets a clock do it on quiet streams
// so dead runs don't pin their bound events until the next arrival.
func (m *oracle) Advance(now time.Time) int {
	if m.p.Within <= 0 || len(m.runs) == 0 {
		return 0
	}
	kept := m.runs[:0]
	for _, r := range m.runs {
		if now.Sub(r.start) <= m.p.Within {
			kept = append(kept, r)
		}
	}
	pruned := len(m.runs) - len(kept)
	for i := len(kept); i < len(m.runs); i++ {
		m.runs[i] = nil
	}
	m.runs = kept
	return pruned
}

// Feed processes one event and returns matches completed by it.
// Events must be fed in nondecreasing time order for WITHIN semantics.
func (m *oracle) Feed(ev *event.Event) []*Match {
	p := m.p
	var matches []*Match
	var alive []*run

	// Expire runs that can no longer complete inside the window.
	if p.Within > 0 {
		kept := m.runs[:0]
		for _, r := range m.runs {
			if ev.Time.Sub(r.start) <= p.Within {
				kept = append(kept, r)
			}
		}
		m.runs = kept
	}

	stepMatches := func(si int, r *run) bool {
		s := &p.Steps[si]
		if s.EventType != "" && s.EventType != ev.Type {
			return false
		}
		if s.guard != nil {
			var bindings []*event.Event
			if r != nil {
				bindings = r.bindings
			}
			ok, err := s.guard.Match(&guardResolver{p: p, bindings: bindings, current: ev})
			if err != nil || !ok {
				return false
			}
		}
		return true
	}

	complete := func(r *run) *Match {
		b := make(map[string]*event.Event, len(p.positive))
		for i, si := range p.positive {
			b[p.Steps[si].Alias] = r.bindings[i]
		}
		return &Match{
			Pattern:  p.Name,
			Bindings: b,
			Start:    r.start,
			End:      ev.Time,
		}
	}

	advance := func(r *run) (*run, *Match) {
		nr := &run{
			nextPos:  r.nextPos + 1,
			bindings: append(append([]*event.Event(nil), r.bindings...), ev),
			start:    r.start,
		}
		if nr.nextPos == len(p.positive) {
			return nil, complete(nr)
		}
		return nr, nil
	}

	for _, r := range m.runs {
		si := p.positive[r.nextPos]
		// Negated steps guarding this position: any step between the
		// previous positive step and this one.
		killed := false
		lo := 0
		if r.nextPos > 0 {
			lo = p.positive[r.nextPos-1] + 1
		}
		for ni := lo; ni < si; ni++ {
			if p.Steps[ni].Negated && stepMatches(ni, r) {
				killed = true
				break
			}
		}
		if killed {
			continue
		}
		if stepMatches(si, r) {
			adv, match := advance(r)
			if match != nil {
				matches = append(matches, match)
			} else {
				alive = append(alive, adv)
			}
			switch p.Strategy {
			case SkipTillAny:
				alive = append(alive, r) // fork: also keep waiting
			case SkipTillNext:
				// single path: the original run is consumed
			case Strict:
				// consumed as well
			}
		} else {
			switch p.Strategy {
			case Strict:
				// contiguity violated: run dies
			default:
				alive = append(alive, r)
			}
		}
	}

	// Try to start a new run at step 0.
	if stepMatches(p.positive[0], nil) {
		r0 := &run{start: ev.Time}
		adv, match := advance(r0)
		if match != nil {
			matches = append(matches, match)
		} else {
			alive = append(alive, adv)
		}
	}

	m.runs = alive
	return matches
}

// guardResolver resolves "alias.attr" against bound steps and bare
// names (plus $-envelope fields) against the current event.
type guardResolver struct {
	p        *Pattern
	bindings []*event.Event
	current  *event.Event
}

func (g *guardResolver) Get(name string) (val.Value, bool) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		alias, attr := name[:i], name[i+1:]
		for bi, si := range g.p.positive {
			if bi >= len(g.bindings) {
				break
			}
			if g.p.Steps[si].Alias == alias {
				return g.bindings[bi].Get(attr)
			}
		}
		// Unbound alias (e.g. guard referencing itself): fall through to
		// the current event when the alias is the step being tested.
		return g.current.Get(attr)
	}
	return g.current.Get(name)
}

// Package cep implements complex event processing: declarative patterns
// over event streams, the capability the paper identifies continuous
// queries as the "comprehensive base" for (§2.2.c.i.3).
//
// A pattern is a sequence of steps, each matching an event type with an
// optional guard expression. Guards can reference attributes of the
// current event (bare names) and of earlier bound steps ("a.price").
// Negated steps express absence: if a matching event arrives while the
// run waits for the following positive step, the run dies.
//
// Patterns run under one of the standard event-selection strategies:
//
//   - Strict: the very next fed event must match the next step.
//   - SkipTillNext: non-matching events are ignored; the first match
//     advances the run (single path).
//   - SkipTillAny: every match forks the run, enumerating all
//     combinations (bounded by Shared.MaxInstances).
//
// A WITHIN horizon bounds the time between the first and last events of
// a match.
//
// Shared is the matcher: patterns are registered with Add and a stream
// is pushed through Feed, whether there is one pattern or a hundred
// thousand.
package cep

import (
	"errors"
	"fmt"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/val"
)

// Strategy selects how non-matching events are treated mid-pattern.
type Strategy int

// Event-selection strategies.
const (
	SkipTillNext Strategy = iota
	SkipTillAny
	Strict
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case SkipTillNext:
		return "skip-till-next"
	case SkipTillAny:
		return "skip-till-any"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Step is one element of a pattern.
type Step struct {
	Alias     string
	EventType string // "" matches any type
	Guard     string // "" means unconditional
	Negated   bool

	guard *expr.Predicate
}

// Pattern is a compiled pattern definition.
type Pattern struct {
	Name     string
	Steps    []Step
	Within   time.Duration
	Strategy Strategy

	positive []int // indexes of positive steps, in order
}

// Builder assembles a Pattern.
type Builder struct {
	p   Pattern
	err error
}

// NewPattern starts building a pattern.
func NewPattern(name string) *Builder {
	return &Builder{p: Pattern{Name: name}}
}

// Next appends a positive step.
func (b *Builder) Next(alias, eventType, guard string) *Builder {
	b.addStep(Step{Alias: alias, EventType: eventType, Guard: guard})
	return b
}

// Unless appends a negated (absence) step: while the run waits for the
// following positive step, an event matching this one kills it.
func (b *Builder) Unless(alias, eventType, guard string) *Builder {
	b.addStep(Step{Alias: alias, EventType: eventType, Guard: guard, Negated: true})
	return b
}

func (b *Builder) addStep(s Step) {
	if b.err != nil {
		return
	}
	if s.Alias == "" {
		b.err = errors.New("cep: step alias required")
		return
	}
	for _, existing := range b.p.Steps {
		if existing.Alias == s.Alias {
			b.err = fmt.Errorf("cep: duplicate alias %q", s.Alias)
			return
		}
	}
	if s.Guard != "" {
		g, err := expr.Compile(s.Guard)
		if err != nil {
			b.err = fmt.Errorf("cep: step %q: %w", s.Alias, err)
			return
		}
		s.guard = g.Standing()
	}
	b.p.Steps = append(b.p.Steps, s)
}

// Within bounds the time between the first and last matched events.
func (b *Builder) Within(d time.Duration) *Builder {
	b.p.Within = d
	return b
}

// Strategy sets the event-selection strategy (default SkipTillNext).
func (b *Builder) Strategy(s Strategy) *Builder {
	b.p.Strategy = s
	return b
}

// Build validates and returns the pattern.
func (b *Builder) Build() (*Pattern, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := b.p
	for i, s := range p.Steps {
		if !s.Negated {
			p.positive = append(p.positive, i)
		}
	}
	if len(p.positive) == 0 {
		return nil, errors.New("cep: pattern needs at least one positive step")
	}
	if p.Steps[0].Negated {
		return nil, errors.New("cep: pattern cannot start with a negated step")
	}
	if p.Steps[len(p.Steps)-1].Negated {
		return nil, errors.New("cep: pattern cannot end with a negated step")
	}
	return &p, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Pattern {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Match is one completed pattern instance.
type Match struct {
	Pattern  string
	Bindings map[string]*event.Event
	Start    time.Time
	End      time.Time
}

// Event renders the match as a composite event ("cep.<pattern>") whose
// attributes are the bound events' attributes prefixed by alias.
func (m *Match) Event() *event.Event {
	attrs := make(map[string]val.Value)
	attrs["pattern"] = val.String(m.Pattern)
	for alias, ev := range m.Bindings {
		attrs[alias+"_type"] = val.String(ev.Type)
		attrs[alias+"_id"] = val.Int(int64(ev.ID))
		for k, v := range ev.Fields() {
			attrs[alias+"_"+k] = v
		}
	}
	out := &event.Event{
		ID:     event.NextID(),
		Type:   "cep." + m.Pattern,
		Source: "cep",
		Time:   m.End,
		Attrs:  attrs,
	}
	return out
}

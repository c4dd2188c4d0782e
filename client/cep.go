package client

import "eventdb/internal/cep"

// The pattern verbs: temporal composite-event detection over the event
// stream. A registered pattern compiles into the server's shared
// automaton; when its step sequence completes within the window, the
// server ingests a "cep.<name>" composite event whose attributes are
// the bound events' attributes prefixed by alias ("a_user", "b_amount",
// …). Subscribe, CQ, or queue-bind to `$type = 'cep.<name>'` to
// receive matches. Patterns are engine-global and, on a durable
// leader, survive restarts.

// PatternSpec declares a pattern for Pattern: an ordered list of steps,
// an optional WITHIN window ("30s", "5m", …), and a match strategy
// ("skip-till-next" (default), "skip-till-any", or "strict").
type PatternSpec = cep.Spec

// PatternStep is one step of a PatternSpec. Negated steps must not
// occur between the surrounding positive steps.
type PatternStep = cep.StepSpec

// Pattern registers a named event pattern on the server. Like
// triggers, patterns are engine-global: they keep matching after this
// connection closes, and their composite events reach subscribers on
// every connection.
func (c *Conn) Pattern(name string, spec PatternSpec) error {
	return c.named("PATTERN", "pattern", name, spec)
}

// Unpattern removes a registered pattern by name.
func (c *Conn) Unpattern(name string) error { return c.named("UNPATTERN", "pattern", name, nil) }

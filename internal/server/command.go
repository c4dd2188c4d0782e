package server

import (
	"strconv"
	"strings"
)

// The command registry. Every wire verb — old pub/sub plane and new
// database plane alike — is one table entry: a name, a declared
// argument shape, and a handler. The read loop knows nothing about any
// verb; it parses the shared line framing, resolves the entry, and
// dispatches. Adding a verb is adding an entry, not switch surgery.

// tailMode says what a command expects after its fixed arguments.
type tailMode int

const (
	// noTail: the line must end after the fixed arguments.
	noTail tailMode = iota
	// optionalTail: free-form remainder, may be empty (e.g. a filter —
	// empty matches everything).
	optionalTail
	// requiredTail: free-form remainder, must be non-empty (JSON
	// payloads).
	requiredTail
)

// request is one parsed command: the fixed arguments and the
// free-form tail. Body-consuming commands (PUBB) read their batch
// through conn.readBody, which speaks whichever wire mode the
// connection negotiated.
type request struct {
	args []string
	tail string
}

// int1 parses args[i] as a non-negative int, for handlers with numeric
// arguments.
func (req *request) int1(i int) (int, bool) {
	n, err := strconv.Atoi(req.args[i])
	return n, err == nil && n >= 0
}

// handler runs one parsed command. Returning false closes the
// connection (QUIT, or loss of line framing).
type handler func(c *conn, req *request) bool

// cmdSpec declares one verb's wire shape.
type cmdSpec struct {
	// args is the number of fixed space-separated arguments.
	args int
	// tail declares the free-form remainder after the fixed arguments.
	tail tailMode
	// usage is the synopsis quoted in badargs replies.
	usage string
	// mutating marks verbs that change durable or queue state; they are
	// refused with "ERR readonly" while the node is a replication
	// follower, and with "ERR degraded" after the storage layer
	// fail-stopped. Ephemeral reads (SELECT, SUB, MATCH, CQ, REPLAY)
	// stay available in both states.
	mutating bool
	// sheds marks ingest verbs that may be refused with "ERR limit" for
	// a low-priority connection (HELLO flag "lowprio") while an overload
	// watermark is exceeded — load shedding before blocking backpressure
	// turns into collapse.
	sheds bool
	// bodies marks a verb whose request continues past the command line
	// in body units (PUBB). dispatch leaves its gates to the handler,
	// which applies them once the bodies are read: a refusal sent ahead
	// of them would leave the client's events to be parsed as commands.
	bodies bool
	// handle runs the command.
	handle handler
}

// parse splits the post-verb remainder into fixed arguments and tail.
// It returns a human-readable problem ("" on success) so the dispatch
// loop stays verb-agnostic.
func (s *cmdSpec) parse(rest string) (*request, string) {
	req := &request{}
	if s.args > 0 {
		req.args = make([]string, 0, s.args)
		for i := 0; i < s.args; i++ {
			tok, remainder, _ := strings.Cut(rest, " ")
			if tok == "" {
				return nil, "missing arguments"
			}
			req.args = append(req.args, tok)
			rest = remainder
		}
	}
	switch s.tail {
	case noTail:
		if strings.TrimSpace(rest) != "" {
			return nil, "unexpected trailing arguments"
		}
	case requiredTail:
		if strings.TrimSpace(rest) == "" {
			return nil, "missing payload"
		}
		req.tail = rest
	case optionalTail:
		req.tail = rest
	}
	return req, ""
}

// commands is the verb table. Populated by init so the entries can live
// next to their handlers across files.
var commands = make(map[string]*cmdSpec)

// register installs one verb; duplicate registration is a programming
// error caught at startup.
func register(verb string, spec cmdSpec) {
	if _, dup := commands[verb]; dup {
		panic("server: duplicate command " + verb)
	}
	commands[verb] = &spec
}

func init() {
	// Liveness, negotiation, and teardown.
	register("PING", cmdSpec{usage: "PING",
		handle: func(c *conn, _ *request) bool { c.reply("PONG"); return true }})
	register("QUIT", cmdSpec{usage: "QUIT",
		handle: func(_ *conn, _ *request) bool { return false }})
	register("HELLO", cmdSpec{args: 1, tail: optionalTail, usage: "HELLO <version> [flags]", handle: handleHello})
	register("STATS", cmdSpec{tail: optionalTail, usage: "STATS [format=json]", handle: handleStats})

	// Publish/match: the message-store front door. Publishing mutates
	// (rule actions, queue staging); MATCH is evaluation only.
	register("PUB", cmdSpec{tail: requiredTail, usage: "PUB <json-event>", mutating: true, sheds: true, handle: handlePub})
	register("PUBB", cmdSpec{tail: requiredTail, usage: "PUBB <n>", mutating: true, sheds: true, bodies: true, handle: handlePubBatch})
	register("PUBT", cmdSpec{args: 2, tail: requiredTail, usage: "PUBT <session> <seq> <json-event>", mutating: true, sheds: true, handle: handlePubT})
	register("MATCH", cmdSpec{tail: requiredTail, usage: "MATCH <json-event>", handle: handleMatch})

	// Ephemeral push sinks.
	register("SUB", cmdSpec{args: 1, tail: optionalTail, usage: "SUB <id> <filter>", handle: handleSub})
	register("CQ", cmdSpec{args: 1, tail: requiredTail, usage: "CQ <id> <json-spec>", handle: handleCQ})
	register("UNSUB", cmdSpec{args: 1, usage: "UNSUB <id>", handle: handleUnsub})

	// Durable queue plane. Everything except introspection and history
	// replay moves queue state, so it is leader-only.
	register("QSUB", cmdSpec{args: 2, tail: optionalTail, usage: "QSUB <name> <auto|manual> <filter>", mutating: true, handle: handleQSub})
	register("CONSUME", cmdSpec{args: 2, usage: "CONSUME <name> <max>", mutating: true, handle: handleConsume})
	register("ACK", cmdSpec{args: 2, usage: "ACK <name> <receipt>", mutating: true, handle: handleAck})
	register("NACK", cmdSpec{args: 3, usage: "NACK <name> <receipt> <delay-ms>", mutating: true, handle: handleNack})
	register("QSTATS", cmdSpec{args: 1, tail: optionalTail, usage: "QSTATS <name> [format=json]", handle: handleQStats})
	register("REPLAY", cmdSpec{args: 2, usage: "REPLAY <name> <from-lsn>", handle: handleReplay})

	// Database plane: DDL, DML, one-shot reads, triggers, watched
	// queries (see dbcmds.go).
	register("TABLE", cmdSpec{tail: requiredTail, usage: "TABLE <json-spec>", mutating: true, handle: handleTable})
	register("INSERT", cmdSpec{args: 1, tail: requiredTail, usage: "INSERT <table> <json-values>", mutating: true, handle: handleInsert})
	register("UPDATE", cmdSpec{args: 1, tail: requiredTail, usage: "UPDATE <table> <json: where/set>", mutating: true, handle: handleUpdate})
	register("DELETE", cmdSpec{args: 1, tail: requiredTail, usage: "DELETE <table> <json: where>", mutating: true, handle: handleDelete})
	register("SELECT", cmdSpec{tail: requiredTail, usage: "SELECT <json-spec>", handle: handleSelect})
	register("TRIG", cmdSpec{args: 1, tail: requiredTail, usage: "TRIG <name> <json-spec>", mutating: true, handle: handleTrig})
	register("UNTRIG", cmdSpec{args: 1, usage: "UNTRIG <name>", mutating: true, handle: handleUntrig})
	register("WATCH", cmdSpec{args: 1, tail: requiredTail, usage: "WATCH <name> <json-spec>", mutating: true, handle: handleWatch})
	register("UNWATCH", cmdSpec{args: 1, usage: "UNWATCH <name>", mutating: true, handle: handleUnwatch})
	// COMPACT only reorganizes the rebuildable columnar cache, so it is
	// not a mutating verb and stays available on followers.
	register("COMPACT", cmdSpec{tail: optionalTail, usage: "COMPACT [table] [format=json]", handle: handleCompact})

	// Replication plane (replcmds.go): WAL shipping and promotion.
	register("REPLICATE", cmdSpec{args: 1, usage: "REPLICATE <from-lsn>", handle: handleReplicate})
	register("RACK", cmdSpec{args: 1, usage: "RACK <cursor>", handle: handleRack})
	register("PROMOTE", cmdSpec{usage: "PROMOTE", handle: handlePromote})
	register("ROLE", cmdSpec{usage: "ROLE", handle: handleRole})

	// Health plane (healthcmds.go). Neither verb is mutating: HEALTH is
	// a read, and RECOVER must be reachable exactly when mutations are
	// refused.
	register("HEALTH", cmdSpec{tail: optionalTail, usage: "HEALTH [format=json]", handle: handleHealth})
	register("RECOVER", cmdSpec{usage: "RECOVER", handle: handleRecover})
}

// dispatch parses and runs one command line. The only framing decision
// here is verb lookup; everything verb-specific lives in the handlers.
func dispatch(c *conn, line string) bool {
	verb, rest, _ := strings.Cut(line, " ")
	name := strings.ToUpper(verb)
	spec, ok := commands[name]
	if !ok {
		c.errf(codeUnknown, "unknown command %q", verb)
		return true
	}
	req, problem := spec.parse(rest)
	if problem != "" {
		c.errf(codeBadArgs, "%s (usage: %s)", problem, spec.usage)
		return true
	}
	if !spec.bodies && !admit(c, spec, name) {
		return true
	}
	return spec.handle(c, req)
}

// admit applies a verb's gates — the read-only follower, the degraded
// engine, the shed low-priority publisher — replying with the refusal
// and reporting false when one of them turns the request away. Every
// request passes it exactly once: in dispatch, in publishFrame for the
// Pub frame (under PUB's spec), or in publish for a verb with bodies.
func admit(c *conn, spec *cmdSpec, verb string) bool {
	eng := c.srv.eng
	if spec.mutating {
		if eng.ReadOnly() {
			c.errf(codeReadonly, "%s refused: this node is a read-only follower (PROMOTE to enable writes)", verb)
			return false
		}
		if deg, cause := eng.Degraded(); deg {
			c.errf(codeDegraded, "%s refused: storage fail-stopped (%s); RECOVER to resume", verb, cause)
			return false
		}
	}
	if spec.sheds && c.lowprio {
		if over, reason := eng.Overloaded(); over {
			eng.Metrics.Counter("server.shed").Inc()
			c.errf(codeLimit, "%s shed: %s (low-priority ingest refused under overload)", verb, reason)
			return false
		}
	}
	return true
}

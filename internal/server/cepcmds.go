// PATTERN/UNPATTERN: the wire surface of the engine's shared CEP
// automaton. A pattern is engine-global, like a trigger or a queue
// binding: the registering connection can drop and the automaton keeps
// matching, emitting "cep.<name>" composite events into normal fan-out
// where SUB/CQ/QSUB filters pick them up. Once the engine's durable
// registrations are restored (a durable leader, or a follower at its
// promotion), a pattern persists across restarts.
package server

import (
	"errors"

	"eventdb/internal/core"
)

func init() {
	register("PATTERN", cmdSpec{args: 1, tail: requiredTail,
		usage: "PATTERN <name> <json-spec>", mutating: true, handle: handlePattern})
	register("UNPATTERN", cmdSpec{args: 1,
		usage: "UNPATTERN <name>", mutating: true, handle: handleUnpattern})
}

func handlePattern(c *conn, req *request) bool {
	name := req.args[0]
	spec := []byte(req.tail)
	if !parsePayload(c, spec, func() error { return nil }) {
		return true
	}
	if err := c.srv.eng.RegisterPattern(name, spec); err != nil {
		if errors.Is(err, core.ErrPatternExists) {
			c.errf(codeDup, "%v", err)
		} else {
			// ParseSpec rejections: bad step shape, unknown strategy,
			// unparsable guard or within, duplicate alias, …
			c.errf(codeBadSpec, "%v", err)
		}
		return true
	}
	c.reply("OK")
	return true
}

func handleUnpattern(c *conn, req *request) bool {
	if err := c.srv.eng.UnregisterPattern(req.args[0]); err != nil {
		c.errf(codeNoPattern, "%v", err)
		return true
	}
	c.reply("OK")
	return true
}

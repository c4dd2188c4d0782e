package server

import (
	"strconv"
	"strings"
)

// HELLO — wire-mode negotiation (PROTOCOL.md §3).
//
//	HELLO <version> [flag,flag,...] → "OK <version> [flag,...]"
//
// The client names the highest protocol version it speaks and the
// optional features it wants; the server replies with the version the
// connection will use (min of both sides, never above
// protocolVersion) and the subset of flags it grants; 2 and 3 are
// binary, and 3 adds the Evts frame. The reply goes out in the mode in
// effect *before* the HELLO; everything after it — both directions —
// uses the negotiated mode. Negotiation is refused with "ERR conflict"
// once any sink (SUB/CQ/QSUB/REPLICATE) has ever been registered:
// flipping the wire encoding under a live push producer would
// interleave modes mid-stream.
//
// Flags (one is defined; an unknown flag gets no echo, so clients
// treat the echo as the truth):
//
//	lowprio — the connection volunteers as sheddable: while an overload
//	          watermark is exceeded its publishes are refused with
//	          "ERR limit" instead of blocking, protecting high-priority
//	          producers and the engine itself. Always granted.

func handleHello(c *conn, req *request) bool {
	ver, err := strconv.Atoi(req.args[0])
	if err != nil || ver < 1 {
		c.errf(codeBadArgs, "HELLO needs a protocol version >= 1, got %q", req.args[0])
		return true
	}
	if c.everSink {
		c.errf(codeConflict, "HELLO must precede any subscription or stream on the connection")
		return true
	}
	if ver > protocolVersion {
		ver = protocolVersion
	}
	lowprio := false
	for _, flag := range strings.Split(req.tail, ",") {
		switch strings.TrimSpace(flag) {
		case "lowprio":
			lowprio = true
		}
	}
	line := "OK " + strconv.Itoa(ver)
	if lowprio {
		line += " lowprio"
	}
	// Reply in the current mode, then flip: the next frame or line —
	// either direction — is in the negotiated mode. No producer can
	// race the flip (no sink exists, and replies are reader-driven).
	c.reply(line)
	c.lowprio = lowprio
	c.binary = ver >= 2
	c.evts = ver >= 3
	if c.binary && c.fr == nil {
		c.fr = newFrameReader(c)
	}
	return true
}

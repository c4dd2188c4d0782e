package server

import (
	"fmt"
	"strings"

	"eventdb/internal/core"
	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/metrics"
	"eventdb/internal/pubsub"
)

// Handlers for the message plane: matching, ephemeral push sinks
// (SUB/CQ), and connection introspection (publishing is publish.go).
// Each is a registry entry (see command.go); none is reachable except
// through dispatch.

func handleMatch(c *conn, req *request) bool {
	ev, err := event.UnmarshalJSONEventString(req.tail)
	if err != nil {
		c.errf(codeBadJSON, "%v", err)
		return true
	}
	ids, err := c.srv.eng.Broker.MatchOnly(ev)
	if err != nil {
		c.errf(codeInternal, "%v", err)
		return true
	}
	c.reply("OK " + strings.Join(ids, ","))
	return true
}

// A SUB keeps nothing of its command line (pubsub.SubscribeTarget), and
// a CQ copies the id its spec keeps, so that neither pins the line.
func handleSub(c *conn, req *request) bool {
	c.subscribe(req.args[0], req.tail, nil)
	return true
}

func handleCQ(c *conn, req *request) bool {
	localID := strings.Clone(req.args[0])
	def, err := cq.ParseSpec(localID, []byte(req.tail))
	var q *cq.CQ
	if err == nil {
		q, err = cq.New(def)
	}
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	// The broker subscription is the CQ's only filter: its indexed
	// match picks the events the CQ folds, and Feed filters nothing.
	c.subscribe(localID, def.Filter, q)
	return true
}

// subscribe registers the broker rule of a SUB (q nil), which pushes
// each event that matches filter, or of a CQ, which pushes what q folds
// the event into, and replies to the command that asked for it.
func (c *conn) subscribe(localID, filter string, q *cq.CQ) {
	if c.hasSink(localID) {
		c.errf(codeDup, "id %q already in use", localID)
		return
	}
	var t pubsub.Target = c
	if q != nil {
		t = &cqSink{c: c, q: q}
	}
	if err := c.srv.eng.Broker.SubscribeTarget(c.subs+localID, filter, t); err != nil {
		c.errf(codeBadSpec, "%v", err)
		return
	}
	if q == nil {
		c.nsubs++
	} else {
		c.ncqs++
	}
	c.everSink = true
	c.reply("OK")
}

func handleUnsub(c *conn, req *request) bool {
	localID, name := req.args[0], c.subs+req.args[0]
	c.mu.Lock()
	s, ok := c.sinks[localID]
	delete(c.sinks, localID)
	c.mu.Unlock()
	t, isRule := c.srv.eng.Broker.TargetOf(name)
	switch {
	case ok:
		// For a durable consumer this stops delivery to this connection
		// and releases its unacked messages; the queue, its staged
		// events, and the broker binding all survive for the next attach.
		s.detach()
	case isRule:
		c.srv.eng.Broker.Unsubscribe(name)
		if _, cq := t.(*cqSink); cq {
			c.ncqs--
		} else {
			c.nsubs--
		}
	default:
		c.errf(codeNoSub, "no subscription %q", localID)
		return true
	}
	c.reply("OK")
	return true
}

// handleStats reports connection counters. The text field order —
// sent, dropped, queued, subs, cqs, qsubs — is part of the wire
// contract (PROTOCOL.md) and must never change; "STATS format=json"
// returns the same fields, in the same order, as one JSON object so
// dashboards and the gateway need no key=value scraping.
func handleStats(c *conn, req *request) bool {
	format, ok := statsFormat(c, req.tail)
	if !ok {
		return true
	}
	subs, cqs, qsubs := c.nsubs, c.ncqs, 0
	c.mu.Lock()
	for _, s := range c.sinks {
		if _, ok := s.(*queueSink); ok {
			qsubs++
		}
	}
	c.mu.Unlock()
	if format == "json" {
		c.reply(fmt.Sprintf(`OK {"sent":%d,"dropped":%d,"queued":%d,"subs":%d,"cqs":%d,"qsubs":%d,"latency":%s,"patterns":%s,"qsub":%s,"writes":{"calls":%d,"writer_starts":%d}}`,
			c.sent.Load(), c.dropped.Load(), c.queuedNow(), subs, cqs, qsubs, latencyJSON(&c.lat),
			patternsJSON(c.srv.eng.PatternStats()), qsubJSON(c.srv.eng.Metrics),
			c.writeCalls.Load(), c.writerStarts.Load()))
		return true
	}
	c.reply(fmt.Sprintf("OK sent=%d dropped=%d queued=%d subs=%d cqs=%d qsubs=%d",
		c.sent.Load(), c.dropped.Load(), c.queuedNow(), subs, cqs, qsubs))
	return true
}

// patternsJSON renders the engine's shared-automaton counters for the
// json stats replies: registered patterns, live partial matches,
// composite events emitted, partials pruned by the WITHIN horizon, and
// partials evicted by the instance cap.
func patternsJSON(st core.PatternStats) string {
	return fmt.Sprintf(`{"registered":%d,"instances":%d,"matches":%d,"pruned":%d,"dropped":%d}`,
		st.Patterns, st.Instances, st.Matches, st.Pruned, st.Dropped)
}

// qsubJSON renders the engine-wide durable-consumer counters for the
// json stats replies: QEVTs pushed to QSUB consumers, the bursts they
// were queued in (delivered / bursts messages share a write) and the
// claims behind them (delivered / claim_commits messages share a claim;
// the name is older than claims that write nothing).
func qsubJSON(m *metrics.Registry) string {
	return fmt.Sprintf(`{"delivered":%d,"bursts":%d,"claim_commits":%d}`,
		m.Counter("server.qsub.delivered").Value(), m.Counter("server.qsub.bursts").Value(),
		m.Counter("queue.claim.commits").Value())
}

// latencyJSON renders a delivery-latency histogram as a JSON object
// with microsecond fields. Percentiles are upper bounds at the
// histogram's power-of-two bucket resolution.
func latencyJSON(h *metrics.LatencyHistogram) string {
	return fmt.Sprintf(`{"n":%d,"mean_us":%d,"p50_us":%d,"p99_us":%d,"p999_us":%d,"max_us":%d}`,
		h.Count(), h.Mean().Microseconds(),
		h.Percentile(50).Microseconds(), h.Percentile(99).Microseconds(),
		h.Percentile(99.9).Microseconds(), h.Max().Microseconds())
}

// statsFormat parses the optional "format=json" tail shared by STATS
// and QSTATS. ok=false means a bad tail was already answered.
func statsFormat(c *conn, tail string) (format string, ok bool) {
	switch strings.TrimSpace(tail) {
	case "":
		return "", true
	case "format=json":
		return "json", true
	default:
		c.errf(codeBadArgs, "unknown stats option %q (want format=json)", strings.TrimSpace(tail))
		return "", false
	}
}

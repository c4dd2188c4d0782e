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
	ev, err := event.UnmarshalJSONEvent([]byte(req.tail))
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

func handleSub(c *conn, req *request) bool {
	localID, filter := req.args[0], req.tail
	if c.hasSink(localID) {
		c.errf(codeDup, "id %q already in use", localID)
		return true
	}
	bid := c.brokerID(localID)
	err := c.srv.eng.Broker.Subscribe(bid, fmt.Sprintf("conn%d", c.id), filter,
		func(d pubsub.Delivery) { c.pushEvent(localID, d.Event) })
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	if !c.addSink(localID, &subSink{c: c, brokerID: bid}) {
		c.srv.eng.Broker.Unsubscribe(bid)
		c.errf(codeDup, "id %q already in use", localID)
		return true
	}
	c.reply("OK")
	return true
}

func handleCQ(c *conn, req *request) bool {
	localID, spec := req.args[0], req.tail
	if c.hasSink(localID) {
		c.errf(codeDup, "id %q already in use", localID)
		return true
	}
	def, err := cq.ParseSpec(localID, []byte(spec))
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	q, err := cq.New(def)
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	wq := &cqSink{c: c, q: q, brokerID: c.brokerID(localID)}
	// The broker pre-filters with the CQ's own predicate, so the
	// indexed subscription match does the heavy lifting and the CQ
	// maintains windows only over relevant events.
	err = c.srv.eng.Broker.Subscribe(wq.brokerID, fmt.Sprintf("conn%d", c.id), def.Filter,
		func(d pubsub.Delivery) {
			// The lock covers the pushes too: on a sharded engine two
			// workers can feed this CQ back to back, and releasing
			// between Feed and push would let a newer aggregate be
			// enqueued before an older one, leaving the client with a
			// stale "latest" result.
			wq.mu.Lock()
			defer wq.mu.Unlock()
			outs, err := wq.q.Feed(d.Event)
			if err != nil {
				c.srv.eng.Metrics.Counter("server.cq.errors").Inc()
				return
			}
			for _, out := range outs {
				c.pushEvent(localID, out)
			}
		})
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	if !c.addSink(localID, wq) {
		c.srv.eng.Broker.Unsubscribe(wq.brokerID)
		c.errf(codeDup, "id %q already in use", localID)
		return true
	}
	c.reply("OK")
	return true
}

func handleUnsub(c *conn, req *request) bool {
	localID := req.args[0]
	c.mu.Lock()
	s, ok := c.sinks[localID]
	delete(c.sinks, localID)
	c.mu.Unlock()
	if !ok {
		c.errf(codeNoSub, "no subscription %q", localID)
		return true
	}
	// For a durable consumer this stops delivery to this connection and
	// releases its unacked messages; the queue, its staged events, and
	// the broker binding all survive for the next attach.
	s.detach()
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
	var subs, cqs, qsubs int
	c.mu.Lock()
	for _, s := range c.sinks {
		switch s.kind() {
		case "sub":
			subs++
		case "cq":
			cqs++
		case "qsub":
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
		st.Registered, st.Instances, st.Matches, st.Pruned, st.Dropped)
}

// qsubJSON renders the engine-wide durable-consumer counters for the
// json stats replies: QEVTs pushed to QSUB consumers, the bursts they
// were queued in (delivered / bursts messages share a write) and the
// claim transactions behind them (delivered / claim_commits share a
// commit record).
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

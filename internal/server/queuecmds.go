package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/journal"
	"eventdb/internal/queue"
)

// Handlers for the durable queue plane: QSUB push consumers, CONSUME
// pulls, receipt settlement, introspection, and journal replay.

func handleQSub(c *conn, req *request) bool {
	name, mode, filter := req.args[0], req.args[1], req.tail
	var autoAck bool
	switch mode {
	case "auto":
		autoAck = true
	case "manual":
	default:
		c.errf(codeBadArgs, "QSUB ack mode %q (want auto or manual)", mode)
		return true
	}
	if c.hasSink(name) {
		c.errf(codeDup, "id %q already in use", name)
		return true
	}
	q, err := c.srv.eng.BindQueue(name, filter, c.srv.cfg.Queue)
	if err != nil {
		code := codeInternal // the queue could not be opened
		if q != nil {
			code = codeBadSpec // its filter, or its catalogue row, was refused
		}
		c.errf(code, "%v", err)
		return true
	}
	qs := &queueSink{
		c:        c,
		name:     name,
		q:        q,
		autoAck:  autoAck,
		prefetch: c.srv.cfg.QueuePrefetch,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		ackWake:  make(chan struct{}, 1),

		delivered: c.srv.eng.Metrics.Counter("server.qsub.delivered"),
		bursts:    c.srv.eng.Metrics.Counter("server.qsub.bursts"),
		claims:    c.srv.eng.Metrics.Counter("queue.claim.commits"),
	}
	c.addSink(name, qs)
	go qs.run()
	c.reply("OK")
	return true
}

// lookupQueue finds an attached queue, or attaches to its recovered
// table. Unlike QSUB it never creates: pulling from a queue that was
// never bound is a client mistake worth surfacing. On a read-only
// follower no queue is ever attached (attaching mutates message
// state), so the lookup reports absence instead of attaching.
func (c *conn) lookupQueue(name string) (*queue.Queue, error) {
	if q, ok := c.srv.eng.Queues.Get(name); ok {
		return q, nil
	}
	if c.srv.eng.ReadOnly() {
		return nil, fmt.Errorf("%w: queue %q is not attached on this read-only follower", queue.ErrNotFound, name)
	}
	return c.srv.eng.Queues.Open(name, c.srv.cfg.Queue)
}

// queueFail maps a lookupQueue error to its wire code: only genuine
// absence is "noqueue" — an attach failure on an existing queue table
// is a server-side fault a client must not mistake for "create me".
func (c *conn) queueFail(err error) {
	if errors.Is(err, queue.ErrNotFound) {
		c.errf(codeNoQueue, "%v", err)
		return
	}
	c.errf(codeInternal, "%v", err)
}

func handleConsume(c *conn, req *request) bool {
	name := req.args[0]
	max, ok := req.int1(1)
	if !ok || max <= 0 {
		c.errf(codeBadArgs, "CONSUME needs a positive max, got %q", req.args[1])
		return true
	}
	if max > maxBatch {
		// Same bound as PUBB: one command must not make the server
		// buffer an entire (arbitrarily deep) queue in memory.
		c.errf(codeTooBig, "CONSUME max %d out of range (want 1..%d)", max, maxBatch)
		return true
	}
	q, err := c.lookupQueue(name)
	if err != nil {
		c.queueFail(err)
		return true
	}
	var evts []qline
	for len(evts) < max {
		msgs, err := q.DequeueBatch(c.pull, max-len(evts))
		for _, msg := range msgs {
			data, err := msg.Event.EncodedJSON()
			if err != nil {
				// Poison message: Nack so attempts burn down to the dead
				// letter instead of Release looping it back to the head of
				// the queue forever.
				c.srv.eng.Metrics.Counter("server.push.encode_errors").Inc()
				q.Nack(msg.Receipt, 0)
				continue
			}
			evts = append(evts, qline{msg.Receipt.Token(), msg.Attempt, data, msg.Receipt})
		}
		if err != nil {
			// Hand back what this command already claimed: the client
			// gets only ERR and has no tokens to settle with.
			for _, e := range evts {
				q.Release(e.r)
			}
			c.errf(codeInternal, "%v", err)
			return true
		}
		if len(msgs) == 0 {
			break
		}
	}
	// Reply first, then the batch: both flow through the outbound
	// queue in order, so the client sees "OK <n>" followed by exactly
	// n QEVT lines (interleaved pushes for other sinks aside).
	c.reply(fmt.Sprintf("OK %d", len(evts)))
	c.queueQEvts(nil, name, evts)
	return true
}

// claimOf resolves an ACK or NACK token to the claim it settles: this
// connection's, at the token's attempt. Otherwise it replies conflict
// when the connection holds the message at another attempt, and
// noreceipt for any other token.
func (c *conn) claimOf(name, token string) (*queue.Queue, queue.Receipt, bool) {
	q, ok := c.srv.eng.Queues.Get(name)
	var r queue.Receipt
	current := false
	if ok {
		r, current, ok = q.Claim(token)
	}
	switch {
	case !ok || (r.Consumer != c.pull && r.Consumer != c.push):
		c.errf(codeNoReceipt, "no outstanding delivery %q on queue %q", token, name)
	case !current:
		c.errf(codeConflict, "%v", queue.ErrStaleReceipt)
	default:
		return q, r, true
	}
	return nil, r, false
}

func handleAck(c *conn, req *request) bool {
	q, r, ok := c.claimOf(req.args[0], req.args[1])
	if !ok {
		return true
	}
	if err := q.Ack(r); err != nil {
		c.errf(codeConflict, "%v", err)
		return true
	}
	c.signalAck(q)
	c.reply("OK")
	return true
}

func handleNack(c *conn, req *request) bool {
	delayMS, ok := req.int1(2)
	if !ok {
		c.errf(codeBadArgs, "NACK needs a non-negative delay in milliseconds, got %q", req.args[2])
		return true
	}
	q, r, ok := c.claimOf(req.args[0], req.args[1])
	if !ok {
		return true
	}
	if err := q.Nack(r, time.Duration(delayMS)*time.Millisecond); err != nil {
		c.errf(codeConflict, "%v", err)
		return true
	}
	c.signalAck(q)
	c.reply("OK")
	return true
}

// handleQStats reports queue counters. As with STATS, the text field
// order — ready, inflight, dead, outstanding — is frozen by
// PROTOCOL.md, and "QSTATS <name> format=json" returns the same
// fields as one JSON object.
func handleQStats(c *conn, req *request) bool {
	name := req.args[0]
	format, ok := statsFormat(c, req.tail)
	if !ok {
		return true
	}
	q, err := c.lookupQueue(name)
	if err != nil {
		c.queueFail(err)
		return true
	}
	st := q.Stats()
	if format == "json" {
		c.reply(fmt.Sprintf(`OK {"ready":%d,"inflight":%d,"dead":%d,"outstanding":%d,"patterns":%s}`,
			st.Ready, st.Inflight, st.Dead, c.outstanding(q),
			patternsJSON(c.srv.eng.PatternStats())))
		return true
	}
	c.reply(fmt.Sprintf("OK ready=%d inflight=%d dead=%d outstanding=%d",
		st.Ready, st.Inflight, st.Dead, c.outstanding(q)))
	return true
}

// handleReplay backfills history: every message ever staged into the
// queue from the given WAL position is pushed as a QEVT line with a
// historical receipt ("h<lsn>", attempt 0, not ackable), followed by
// "OK <count> <next-lsn>". Replay lines use the blocking reply path —
// they are request-bounded, and history must not be silently dropped.
func handleReplay(c *conn, req *request) bool {
	name := req.args[0]
	fromLSN, err := strconv.ParseUint(req.args[1], 10, 64)
	if err != nil {
		c.errf(codeBadArgs, "REPLAY needs a starting LSN, got %q", req.args[1])
		return true
	}
	next, n, err := c.srv.eng.ReplayQueue(name, fromLSN, func(ev *event.Event, lsn uint64, _ int64) error {
		data, err := ev.EncodedJSON()
		if err != nil {
			return err
		}
		c.queueQEvts(nil, name, []qline{{token: "h" + strconv.FormatUint(lsn, 10), data: data}})
		return nil
	})
	if err != nil {
		if errors.Is(err, journal.ErrNotDurable) {
			c.errf(codeNotDurable, "%v", err)
		} else {
			c.errf(codeInternal, "%v", err)
		}
		return true
	}
	c.srv.eng.Metrics.Counter("server.replay.events").Add(uint64(n))
	c.reply(fmt.Sprintf("OK %d %d", n, next))
	return true
}

package server

import (
	"fmt"
	"sync"
	"time"

	"eventdb/internal/cq"
	"eventdb/internal/metrics"
	"eventdb/internal/queue"
)

// sink is one delivery target registered under a connection-local id.
// Ephemeral push subscriptions (SUB), continuous queries (CQ) and
// durable queue consumers (QSUB) are three implementations of the same
// registration/push/teardown lifecycle: a command registers the sink,
// matched events flow out through the connection's bounded outbound
// queue, and UNSUB or connection teardown detaches it exactly once.
type sink interface {
	// kind names the sink class for STATS ("sub", "cq", "qsub").
	kind() string
	// detach stops delivery and releases everything the sink holds
	// (broker registrations, consumer goroutines, unacked receipts).
	// Called exactly once, by UNSUB or by connection teardown.
	detach()
}

// subSink is an ephemeral predicate subscription: broker matches are
// pushed as they happen and die with the connection.
type subSink struct {
	c        *conn
	brokerID string
}

func (s *subSink) kind() string { return "sub" }
func (s *subSink) detach()      { s.c.srv.eng.Broker.Unsubscribe(s.brokerID) }

// cqSink is a continuous query attached over the wire. Engine handlers
// may run concurrently (shard goroutines), and cq.CQ is not safe for
// concurrent use, so feeds serialize on mu.
type cqSink struct {
	c        *conn
	brokerID string
	mu       sync.Mutex
	q        *cq.CQ
}

func (s *cqSink) kind() string { return "cq" }
func (s *cqSink) detach()      { s.c.srv.eng.Broker.Unsubscribe(s.brokerID) }

// queueSink is a durable consumer: a named staging queue
// (internal/queue, a WAL-recovered table) buffers matched events, and a
// per-consumer goroutine drives WaitDequeueBatch, pushing each delivery
// as a
//
//	QEVT <name> <receipt> <attempt> <json-event>
//
// line. In manual-ack mode the receipt stays outstanding until the
// client ACKs or NACKs it (at-least-once); in auto-ack mode the server
// acknowledges before pushing (at-most-once from the queue's
// perspective). Unlike ephemeral pushes, QEVT lines are never dropped
// under DropOnFull — the queue itself is the backpressure, and
// prefetch bounds how far delivery runs ahead of acknowledgment.
//
// A manual-ack consumer takes what has accumulated, not one message:
// it claims as many ready messages as its prefetch window has free
// slots in one transaction and queues their QEVTs under one hold of the
// connection's outbound queue, so they leave in one write. Below the
// limit that is one message at a time, as it arrives. At the limit it
// pauses until half the window is free (signalAck), so a client that
// acknowledges one message at a time gets its deliveries in bursts of
// half a window for one claim, one wake-up and one write each.
type queueSink struct {
	c        *conn
	name     string
	q        *queue.Queue
	autoAck  bool
	prefetch int
	stop     chan struct{} // closed by detach; halts the consumer
	done     chan struct{} // closed when the consumer goroutine exits
	ackWake  chan struct{} // signals this consumer out of a prefetch pause

	// Resolved once: the registry lookup is a map access under a lock.
	delivered, bursts, claims *metrics.Counter
}

func (s *queueSink) kind() string { return "qsub" }

func (s *queueSink) detach() {
	close(s.stop)
	<-s.done
	// Unacked deliveries this sink pushed can never be acked through it
	// now; release them so other consumers get them immediately instead
	// of after the visibility timeout. Release does not count the
	// attempt: a vanished consumer is not a processing failure. Only
	// this sink's own receipts — CONSUME receipts on the same queue
	// belong to the (possibly still live) connection, which settles
	// them itself or releases them at teardown.
	for _, r := range s.c.dropReceipts(s.name, s) {
		if err := s.q.Release(r); err != nil {
			s.c.srv.eng.Metrics.Counter("server.qsub.release_errors").Inc()
		}
	}
}

// waitQuantum bounds one WaitDequeueBatch call so the consumer loop
// re-checks stop and prefetch at a steady cadence even on an idle
// queue.
const waitQuantum = 250 * time.Millisecond

// run is the per-consumer delivery goroutine.
func (s *queueSink) run() {
	defer close(s.done)
	consumer := fmt.Sprintf("conn%d", s.c.id)
	// One timer for every pause of the consumer's life.
	pause := time.NewTimer(waitQuantum)
	defer pause.Stop()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		// An auto-ack consumer acknowledges before each push, so it
		// claims one message at a time.
		room := 1
		if !s.autoAck {
			room = s.prefetch - s.c.outstanding(s.name)
		}
		if room <= 0 {
			// Flow control: the client owes acks. Pause until it has
			// settled half the window (signalAck) rather than piling up
			// inflight deliveries that would all redeliver if the
			// connection died. The periodic sweep evicts receipts the
			// client can no longer settle (deliveries it dropped, now
			// past their visibility deadline) — without it each dropped
			// delivery would leak a prefetch slot and eventually park
			// this consumer forever. After a sweep any free slot will
			// do: the half-window rule paces acknowledgments, not
			// evictions.
			switch s.wait(pause) {
			case wokeStop:
				return
			case wokeTimer:
				s.c.evictStaleReceipts(s.name, s.q)
			}
			continue
		}
		msgs, err := s.q.WaitDequeueBatch(consumer, room, waitQuantum, s.stop)
		if len(msgs) > 0 {
			s.claims.Inc()
			s.deliver(msgs)
		}
		if err != nil {
			s.c.srv.eng.Metrics.Counter("server.qsub.errors").Inc()
			if s.wait(pause) == wokeStop {
				return
			}
		}
	}
}

// What ended a consumer's wait.
const (
	wokeAck   = iota // signalAck: the client settled half its window
	wokeTimer        // waitQuantum passed
	wokeStop         // the sink was detached
)

// wait parks the consumer until an acknowledgment wakes it, waitQuantum
// passes or the sink is detached, and reports which.
func (s *queueSink) wait(pause *time.Timer) int {
	if !pause.Stop() {
		select {
		case <-pause.C:
		default:
		}
	}
	pause.Reset(waitQuantum)
	select {
	case <-s.ackWake:
		return wokeAck
	case <-pause.C:
		return wokeTimer
	case <-s.stop:
		return wokeStop
	}
}

// deliver pushes one claimed batch as QEVT lines under one hold of the
// outbound queue, tracking the receipts (manual mode) or acknowledging
// up front (auto mode). The push blocks until queued or the sink
// detaches — a durable delivery is never silently dropped. (Dequeue
// decodes a fresh Event per delivery, so EncodedJSON here is a cold
// encode, not a shared cache hit — the durable path's win is the
// coalesced writer, not cross-sink payload sharing.)
func (s *queueSink) deliver(msgs []*queue.Msg) {
	evts := make([]qline, 0, len(msgs))
	for _, msg := range msgs {
		data, err := msg.Event.EncodedJSON()
		if err != nil {
			// Poison message: it can never cross the wire. Nack — not
			// Release — so the attempts budget burns down and the message
			// dead-letters instead of looping back to the head forever.
			s.c.srv.eng.Metrics.Counter("server.push.encode_errors").Inc()
			s.q.Nack(msg.Receipt, waitQuantum)
			continue
		}
		token := "-"
		if s.autoAck {
			// Acknowledge before pushing: true at-most-once. Acking after a
			// push that blocked past the visibility timeout would go stale
			// while the redelivered copy also ships — duplicates forever on
			// a slow consumer. The cost is the documented one: a message
			// pushed at a dying connection is consumed, not redelivered.
			if err := s.q.Ack(msg.Receipt); err != nil {
				// Visibility expired between dequeue and ack; the message
				// is already due for redelivery — pushing would duplicate.
				s.c.srv.eng.Metrics.Counter("server.qsub.errors").Inc()
				continue
			}
		} else {
			token = receiptToken(msg.Receipt.ID, msg.Attempt)
		}
		evts = append(evts, qline{token, msg.Attempt, data, msg.Receipt})
	}
	if !s.autoAck {
		// Before the first line can reach the client: an ACK must find
		// its receipt.
		s.c.trackReceipts(s.name, evts, s)
	}
	queued := s.c.queueQEvts(s.stop, s.name, evts)
	if queued > 0 {
		s.delivered.Add(uint64(queued))
		s.bursts.Inc()
	}
	if !s.autoAck {
		// Tearing down: these lines were never queued. Hand manual-ack
		// messages back so the next consumer gets them immediately; an
		// auto-ack message was already consumed (at-most-once loss).
		for _, e := range evts[queued:] {
			s.c.takeReceipt(s.name, e.token)
			s.q.Release(e.r)
		}
	}
}

// --- connection-level receipt ledger -----------------------------------

// trackedReceipt is one ledger entry: the receipt plus the sink that
// delivered it (nil for CONSUME pulls, which the connection owns
// directly).
type trackedReceipt struct {
	r     queue.Receipt
	owner *queueSink
}

// trackReceipts records outstanding deliveries awaiting ACK/NACK — a
// sink's burst, or a CONSUME's pull (owner nil) — under one hold of the
// ledger.
func (c *conn) trackReceipts(queueName string, evts []qline, owner *queueSink) {
	if len(evts) == 0 {
		return
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	m := c.receipts[queueName]
	if m == nil {
		m = make(map[string]trackedReceipt)
		c.receipts[queueName] = m
	}
	for _, e := range evts {
		m[e.token] = trackedReceipt{r: e.r, owner: owner}
	}
}

// takeReceipt removes and returns an outstanding receipt.
func (c *conn) takeReceipt(queueName, token string) (queue.Receipt, bool) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	tr, ok := c.receipts[queueName][token]
	if ok {
		delete(c.receipts[queueName], token)
	}
	return tr.r, ok
}

// outstanding counts this connection's unacknowledged deliveries for a
// queue.
func (c *conn) outstanding(queueName string) int {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return len(c.receipts[queueName])
}

// dropReceipts removes and returns the outstanding receipts one sink
// delivered on a queue (its detach path).
func (c *conn) dropReceipts(queueName string, owner *queueSink) []queue.Receipt {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var out []queue.Receipt
	for tok, tr := range c.receipts[queueName] {
		if tr.owner == owner {
			delete(c.receipts[queueName], tok)
			out = append(out, tr.r)
		}
	}
	return out
}

// evictStaleReceipts reaps the queue's expired deliveries, then drops
// ledger entries whose acknowledgments can never arrive — deliveries
// the client discarded, now settled, redelivered, or expired.
func (c *conn) evictStaleReceipts(queueName string, q *queue.Queue) {
	// Reap first: an expired-but-unreaped delivery still answers as
	// current, and no one else may be dequeuing to trigger the reap.
	q.Reap()
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for tok, tr := range c.receipts[queueName] {
		if !q.ReceiptCurrent(tr.r) {
			delete(c.receipts[queueName], tok)
		}
	}
}

// releaseAllReceipts releases every outstanding receipt on the
// connection — the connection teardown path, covering CONSUME pulls
// and any sink receipts not already handled by a detach.
func (c *conn) releaseAllReceipts() {
	c.rmu.Lock()
	byQueue := c.receipts
	c.receipts = make(map[string]map[string]trackedReceipt)
	c.rmu.Unlock()
	for qname, m := range byQueue {
		q, ok := c.srv.eng.Queues.Get(qname)
		if !ok {
			continue
		}
		for _, tr := range m {
			if err := q.Release(tr.r); err != nil {
				c.srv.eng.Metrics.Counter("server.qsub.release_errors").Inc()
			}
		}
	}
}

// signalAck wakes the named queue's consumer (if this connection has
// one) out of a prefetch pause, once the client has settled half its
// window: a consumer woken at the first free slot would claim, wake and
// write once per message, with hundreds ready. Per-sink wakes, not a
// shared channel: with several paused consumers on one connection, a
// shared token could be eaten by a sink whose own queue was not the one
// acked, leaving the right one parked forever.
func (c *conn) signalAck(queueName string) {
	c.mu.Lock()
	s := c.sinks[queueName]
	c.mu.Unlock()
	qs, ok := s.(*queueSink)
	if !ok || c.outstanding(queueName) > qs.prefetch/2 {
		return
	}
	select {
	case qs.ackWake <- struct{}{}:
	default:
	}
}

package server

import (
	"fmt"
	"sync"
	"time"

	"eventdb/internal/cq"
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
// per-consumer goroutine drives WaitDequeue, pushing each delivery as a
//
//	QEVT <name> <receipt> <attempt> <json-event>
//
// line. In manual-ack mode the receipt stays outstanding until the
// client ACKs or NACKs it (at-least-once); in auto-ack mode the server
// acknowledges before pushing (at-most-once from the queue's
// perspective). Unlike ephemeral pushes, QEVT lines are never dropped
// under DropOnFull — the queue itself is the backpressure, and
// prefetch bounds how far delivery runs ahead of acknowledgment.
type queueSink struct {
	c        *conn
	name     string
	q        *queue.Queue
	autoAck  bool
	prefetch int
	stop     chan struct{} // closed by detach; halts the consumer
	done     chan struct{} // closed when the consumer goroutine exits
	ackWake  chan struct{} // signals this consumer out of a prefetch pause
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

// waitQuantum bounds one WaitDequeue call so the consumer loop
// re-checks stop and prefetch at a steady cadence even on an idle
// queue.
const waitQuantum = 250 * time.Millisecond

// run is the per-consumer delivery goroutine.
func (s *queueSink) run() {
	defer close(s.done)
	consumer := fmt.Sprintf("conn%d", s.c.id)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if !s.autoAck && s.c.outstanding(s.name) >= s.prefetch {
			// Flow control: the client owes acks. Pause until one
			// arrives rather than piling up inflight deliveries that
			// would all redeliver if the connection died. The periodic
			// sweep evicts receipts the client can no longer settle
			// (deliveries it dropped, now past their visibility
			// deadline) — without it each dropped delivery would leak a
			// prefetch slot and eventually park this consumer forever.
			select {
			case <-s.ackWake:
			case <-time.After(waitQuantum):
				s.c.evictStaleReceipts(s.name, s.q)
			case <-s.stop:
				return
			}
			continue
		}
		msg, ok, err := s.q.WaitDequeue(consumer, waitQuantum, s.stop)
		if err != nil {
			s.c.srv.eng.Metrics.Counter("server.qsub.errors").Inc()
			select {
			case <-s.stop:
				return
			case <-time.After(waitQuantum):
			}
			continue
		}
		if !ok {
			continue
		}
		s.deliver(msg)
	}
}

// deliver pushes one dequeued message as a QEVT line, tracking its
// receipt (manual mode) or acknowledging it up front (auto mode). The
// push blocks until queued or the sink detaches — a durable delivery
// is never silently dropped. (Dequeue decodes a fresh Event per
// delivery, so EncodedJSON here is a cold encode, not a shared cache
// hit — the durable path's win is the coalesced writer, not cross-sink
// payload sharing.)
func (s *queueSink) deliver(msg *queue.Msg) {
	data, err := msg.Event.EncodedJSON()
	if err != nil {
		// Poison message: it can never cross the wire. Nack — not
		// Release — so the attempts budget burns down and the message
		// dead-letters instead of looping back to the head forever.
		s.c.srv.eng.Metrics.Counter("server.push.encode_errors").Inc()
		s.q.Nack(msg.Receipt, waitQuantum)
		return
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
			return
		}
	} else {
		token = receiptToken(msg.Receipt.ID, msg.Attempt)
		s.c.trackReceipt(s.name, token, msg.Receipt, s)
	}
	if s.c.queueQEvt(s.stop, s.name, token, msg.Attempt, data) {
		s.c.srv.eng.Metrics.Counter("server.qsub.delivered").Inc()
	} else if !s.autoAck {
		// Tearing down: the line was never queued. Hand a manual-ack
		// message back so the next consumer gets it immediately; an
		// auto-ack message was already consumed (at-most-once loss).
		s.c.takeReceipt(s.name, token)
		s.q.Release(msg.Receipt)
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

// trackReceipt records an outstanding delivery awaiting ACK/NACK.
func (c *conn) trackReceipt(queueName, token string, r queue.Receipt, owner *queueSink) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	m := c.receipts[queueName]
	if m == nil {
		m = make(map[string]trackedReceipt)
		c.receipts[queueName] = m
	}
	m[token] = trackedReceipt{r: r, owner: owner}
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
// one) out of a prefetch pause. Per-sink wakes, not a shared channel:
// with several paused consumers on one connection, a shared token
// could be eaten by a sink whose own queue was not the one acked,
// leaving the right one parked forever.
func (c *conn) signalAck(queueName string) {
	c.mu.Lock()
	s := c.sinks[queueName]
	c.mu.Unlock()
	qs, ok := s.(*queueSink)
	if !ok {
		return
	}
	select {
	case qs.ackWake <- struct{}{}:
	default:
	}
}

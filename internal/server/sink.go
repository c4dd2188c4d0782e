package server

import (
	"sync"
	"time"

	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/metrics"
	"eventdb/internal/queue"
)

// sink is a delivery target the broker does not know, a durable queue
// consumer (QSUB) or a replication stream, under a connection-local id;
// UNSUB or teardown detaches it exactly once. A SUB or CQ is only its
// broker rule, named by the connection's prefix and the same local ids.
type sink interface {
	// detach stops delivery and releases everything the sink holds
	// (consumer goroutines, unacked receipts).
	detach()
}

// Deliver pushes one event to the SUBs it matched: a connection is the
// Target of its SUBs' broker rules, each named by its prefix, then the
// local id.
func (c *conn) Deliver(names []string, ev *event.Event) { c.pushEvent(names, ev) }

// cqSink is the Target of a CQ's broker rule: it pushes what q folds
// the rule's matches into.
type cqSink struct {
	c *conn
	// Engine handlers run concurrently, one per publishing connection,
	// and a cq.CQ is not safe for concurrent use. The lock covers the
	// pushes too: two publishing connections can feed this CQ back to
	// back, and releasing between Feed and push would let a newer
	// aggregate be enqueued before an older one, leaving the client
	// with a stale "latest" result.
	mu sync.Mutex
	q  *cq.CQ
}

func (s *cqSink) Deliver(names []string, ev *event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, out := range s.q.Feed(ev) {
		s.c.pushEvent(names, out)
	}
}

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
// slots at once and queues their QEVTs under one hold of the
// connection's outbound queue, so they leave in one write. Below the
// limit that is one message at a time, as it arrives. At the limit it
// pauses until half the window is free (signalAck), so a client that
// acknowledges one message at a time gets its deliveries in bursts of
// half a window for one claim, one wake-up and one write each — and the
// claim deletes the half window it acknowledged in one transaction.
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

func (s *queueSink) detach() {
	close(s.stop)
	<-s.done
	// Unacked deliveries this sink pushed can never be acked through it
	// now; release them so other consumers get them immediately instead
	// of after the visibility timeout. Release does not count the
	// attempt: a vanished consumer is not a processing failure. Only
	// this sink's own claims — CONSUME claims on the same queue belong
	// to the (possibly still live) connection, which settles them itself
	// or releases them at teardown.
	s.q.ReleaseHeld(s.c.push)
	// The consumer's claims settled its acknowledged messages; with the
	// consumer gone, delete what it acknowledged since its last claim.
	if err := s.q.Settle(); err != nil {
		s.c.srv.eng.Metrics.Counter("server.qsub.errors").Inc()
	}
}

// waitQuantum bounds one WaitDequeueBatch call so the consumer loop
// re-checks stop and prefetch at a steady cadence even on an idle
// queue.
const waitQuantum = 250 * time.Millisecond

// run is the per-consumer delivery goroutine.
func (s *queueSink) run() {
	defer close(s.done)
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
			room = s.prefetch - s.c.outstanding(s.q)
		}
		if room <= 0 {
			// Flow control: the client owes acks. Pause until it has
			// settled half the window (signalAck) rather than piling up
			// inflight deliveries that would all redeliver if the
			// connection died. The periodic reap returns deliveries the
			// client dropped once past their visibility deadline, and
			// with them their prefetch slots — without it no one might
			// dequeue to expire them, and this consumer would park
			// forever. After a reap any free slot will do: the
			// half-window rule paces acknowledgments, not expiries.
			switch s.wait(pause) {
			case wokeStop:
				return
			case wokeTimer:
				s.q.Reap()
			}
			continue
		}
		msgs, err := s.q.WaitDequeueBatch(s.c.push, room, waitQuantum, s.stop)
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
// outbound queue, acknowledging up front in auto mode. The push blocks
// until queued or the sink detaches — a durable delivery is never
// silently dropped; a manual-ack line it never queued is released with
// the sink's other claims when it detaches. (Dequeue
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
			token = msg.Receipt.Token()
		}
		evts = append(evts, qline{token, msg.Attempt, data, msg.Receipt})
	}
	if queued := s.c.queueQEvts(s.stop, s.name, evts); queued > 0 {
		s.delivered.Add(uint64(queued))
		s.bursts.Inc()
	}
}

// outstanding counts this connection's unacknowledged deliveries from a
// queue: its CONSUME pulls' and its QSUB sink's.
func (c *conn) outstanding(q *queue.Queue) int { return q.Held(c.pull, c.push) }

// signalAck wakes the named queue's consumer (if this connection has
// one) out of a prefetch pause, once the client has settled half its
// window: a consumer woken at the first free slot would claim, wake and
// write once per message, with hundreds ready. Per-sink wakes, not a
// shared channel: with several paused consumers on one connection, a
// shared token could be eaten by a sink whose own queue was not the one
// acked, leaving the right one parked forever.
func (c *conn) signalAck(q *queue.Queue) {
	c.mu.Lock()
	s := c.sinks[q.Name()]
	c.mu.Unlock()
	qs, ok := s.(*queueSink)
	if !ok || c.outstanding(q) > qs.prefetch/2 {
		return
	}
	select {
	case qs.ackWake <- struct{}{}:
	default:
	}
}

package client

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Delivery is one message delivered from a durable queue subscription:
// the event plus the receipt handle that settles it. Acknowledge with
// Ack (deletes the message) or Nack (returns it for retry); a delivery
// that is neither settled nor held by a live connection goes back to
// the queue for redelivery — at-least-once, never silent loss.
type Delivery struct {
	// Event is the originally published event. Like a Subscription's,
	// it may be shared with other receivers on the same Conn: read-only.
	Event *Event
	// Attempt is 1 for a first delivery, higher for redeliveries of
	// messages that were nacked or timed out unacknowledged. 0 for
	// historical replay deliveries.
	Attempt int
	// Historical marks a journal-backfill delivery (see
	// DurableSub.Replay): already-settled history, not ackable.
	Historical bool
	// LSN is the journal position of a historical delivery — feed the
	// final Replay nextLSN back in to resume a backfill.
	LSN uint64

	queue string
	token string
	c     *Conn
}

// Ack acknowledges the delivery, deleting the message from the queue.
// On auto-ack subscriptions and historical deliveries it is a no-op.
func (d Delivery) Ack() error {
	if d.token == "-" || d.c == nil {
		return nil
	}
	_, err := d.c.call("ACK " + d.queue + " " + d.token)
	return err
}

// Nack returns the delivery to the queue for redelivery after delay
// (the message dead-letters once its attempts exhaust). On auto-ack
// subscriptions and historical deliveries it is a no-op.
func (d Delivery) Nack(delay time.Duration) error {
	if d.token == "-" || d.c == nil {
		return nil
	}
	_, err := d.c.call(fmt.Sprintf("NACK %s %s %d", d.queue, d.token, delay.Milliseconds()))
	return err
}

// DurableOptions tune DurableSubscribe.
type DurableOptions struct {
	// AutoAck acknowledges each message server-side the moment it is
	// pushed, instead of waiting for Delivery.Ack — lower overhead,
	// but a message pushed to a dying connection is consumed, not
	// redelivered (at-most-once). Default false: manual ack,
	// at-least-once.
	AutoAck bool
	// Buffer sizes the delivery channel (default 256, matching the
	// server's default queue prefetch). A delivery that arrives to a
	// full channel is dropped client-side and counted (Dropped); a
	// dropped manual-ack delivery comes back after the server's
	// visibility timeout, but dropped auto-ack and Replay deliveries
	// are gone. Size Buffer at or above the server's queue prefetch —
	// and at or above the expected backfill when using Replay without
	// a concurrent drainer.
	Buffer int
}

// DurableSub is a durable queue subscription. Unlike Subscription,
// the server-side state it attaches to — the named queue, its staged
// messages, the filter binding — survives this connection, this
// process, and (on a -dir server) server restarts. Receive deliveries
// from C; to resume after a disconnect, dial a new connection and
// DurableSubscribe to the same name again.
type DurableSub struct {
	// C delivers staged messages and replayed history.
	C <-chan Delivery

	name    string
	c       *Conn
	ch      chan Delivery
	dropped atomic.Uint64
}

// Name returns the durable queue name.
func (s *DurableSub) Name() string { return s.name }

// Dropped reports deliveries discarded client-side because C's buffer
// was full when they arrived. Dropped manual-ack deliveries are
// redelivered by the server after its visibility timeout.
func (s *DurableSub) Dropped() uint64 { return s.dropped.Load() }

// Close detaches this consumer from the queue and closes C. The queue
// itself, its staged messages, and the filter binding stay live on the
// server: events keep accumulating for the next DurableSubscribe.
func (s *DurableSub) Close() error {
	s.c.mu.Lock()
	if _, ok := s.c.durables[s.name]; !ok {
		s.c.mu.Unlock()
		return nil // already closed (or the connection died)
	}
	delete(s.c.durables, s.name)
	close(s.ch)
	s.c.mu.Unlock()
	_, err := s.c.call("UNSUB " + s.name)
	return err
}

// Replay backfills history through the subscription: every message
// ever staged into the queue from WAL position fromLSN — including
// long-acknowledged ones — is streamed to C as a Historical delivery,
// all of them routed before Replay returns. It reports how many were
// replayed and the next LSN to resume from; periodically persisting
// that cursor gives a consumer the paper's hybrid historical+live
// consumption: replay the journal to catch up, then keep receiving
// live deliveries. Requires a durable (-dir) server.
//
// Drain C from another goroutine during the call (or give Buffer room
// for the whole backfill): historical deliveries that find C full are
// dropped and counted in Dropped — history, unlike unacked live
// deliveries, is not redelivered. Compare the returned count with
// what arrived, and re-Replay from the same cursor if they differ.
func (s *DurableSub) Replay(fromLSN uint64) (n int, nextLSN uint64, err error) {
	resp, err := s.c.call(fmt.Sprintf("REPLAY %s %d", s.name, fromLSN))
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(resp)
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("client: bad REPLAY reply %q", resp)
	}
	n, err = strconv.Atoi(fields[0])
	if err != nil {
		return 0, 0, fmt.Errorf("client: bad REPLAY reply %q", resp)
	}
	nextLSN, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("client: bad REPLAY reply %q", resp)
	}
	return n, nextLSN, nil
}

// DurableSubscribe attaches to the named durable queue: the server
// creates (or re-opens) the queue, binds filter-matching events into
// it, and starts pushing staged messages as deliveries on the returned
// channel. Reconnecting consumers re-attach to the same name and
// resume where their acks left off; multiple simultaneous consumers
// compete for messages (each is delivered to exactly one). A fresh
// attach with a different filter rebinds the queue — but only one
// DurableSubscribe per name may be open on a connection, so rebinding
// from the same connection means Close() first.
func (c *Conn) DurableSubscribe(name, filter string, opts DurableOptions) (*DurableSub, error) {
	if strings.ContainsAny(name, " \r\n") || name == "" {
		return nil, fmt.Errorf("client: bad queue name %q", name)
	}
	if strings.ContainsAny(filter, "\r\n") {
		return nil, fmt.Errorf("client: filter must not contain newlines")
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		if c.subBuf > 0 {
			buffer = c.subBuf
		} else {
			// Match the server's default prefetch: with the default
			// pairing the channel can absorb every delivery the server
			// will push ahead of acknowledgment, so nothing drops.
			buffer = 256
		}
	}
	mode := "manual"
	if opts.AutoAck {
		mode = "auto"
	}
	s := &DurableSub{name: name, c: c, ch: make(chan Delivery, buffer)}
	s.C = s.ch
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.err
	}
	_, dupSub := c.subs[name]
	_, dupDur := c.durables[name]
	if dupSub || dupDur {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: subscription %q already exists", name)
	}
	if _, busy := c.consumers[name]; busy {
		// The mirror of Consume's guard: a collector in flight would
		// swallow this subscription's pushes.
		c.mu.Unlock()
		return nil, fmt.Errorf("client: queue %q has a Consume in flight on this connection", name)
	}
	c.durables[name] = s
	c.mu.Unlock()
	// The QSUB command goes out only after the route is installed, so
	// no delivery can arrive unrouted; roll back if the server refuses.
	if _, err := c.call("QSUB " + name + " " + mode + " " + filter); err != nil {
		c.mu.Lock()
		if _, ok := c.durables[name]; ok {
			delete(c.durables, name)
			close(s.ch)
		}
		c.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// Consume pulls up to max ready messages from a durable queue in one
// round trip — the polling alternative to DurableSubscribe's push
// delivery. Deliveries are always manual-ack. The queue must already
// exist (a prior QSUB, from any connection or process incarnation).
// Consume cannot be mixed with an open DurableSubscribe for the same
// queue on the same connection.
func (c *Conn) Consume(name string, max int) ([]Delivery, error) {
	if strings.ContainsAny(name, " \r\n") || name == "" {
		return nil, fmt.Errorf("client: bad queue name %q", name)
	}
	if max <= 0 {
		return nil, fmt.Errorf("client: max must be positive")
	}
	ch := make(chan Delivery, max)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.err
	}
	if _, ok := c.durables[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: queue %q has an open DurableSubscribe on this connection", name)
	}
	if _, ok := c.consumers[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: concurrent Consume on queue %q", name)
	}
	c.consumers[name] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.consumers, name)
		c.mu.Unlock()
	}()
	resp, err := c.call(fmt.Sprintf("CONSUME %s %d", name, max))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(resp))
	if err != nil {
		return nil, fmt.Errorf("client: bad CONSUME reply %q", resp)
	}
	// The n QEVT lines were queued behind the reply, so they are
	// already on the wire; the read loop routes them here.
	out := make([]Delivery, 0, n)
	for len(out) < n {
		select {
		case d := <-ch:
			out = append(out, d)
		case <-c.done:
			return out, c.err
		}
	}
	return out, nil
}

// QueueStats is a snapshot of a durable queue's contents.
type QueueStats struct {
	// Ready counts messages awaiting delivery.
	Ready int
	// Inflight counts delivered, unacknowledged messages.
	Inflight int
	// Dead counts dead-lettered messages (attempts exhausted).
	Dead int
	// Outstanding counts this connection's own unacknowledged
	// deliveries.
	Outstanding int
}

// QueueStats fetches a durable queue's state counts.
func (c *Conn) QueueStats(name string) (QueueStats, error) {
	resp, err := c.call("QSTATS " + name)
	if err != nil {
		return QueueStats{}, err
	}
	var st QueueStats
	for _, field := range strings.Fields(resp) {
		key, v, ok := strings.Cut(field, "=")
		if !ok {
			return QueueStats{}, fmt.Errorf("client: bad QSTATS field %q", field)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return QueueStats{}, fmt.Errorf("client: bad QSTATS field %q", field)
		}
		switch key {
		case "ready":
			st.Ready = n
		case "inflight":
			st.Inflight = n
		case "dead":
			st.Dead = n
		case "outstanding":
			st.Outstanding = n
		}
	}
	return st, nil
}

// routeDelivery hands one parsed QEVT line to the matching Consume
// collector or durable subscription. Caller holds c.mu.
func (c *Conn) routeDelivery(name string, d Delivery) {
	if ch, ok := c.consumers[name]; ok {
		select {
		case ch <- d:
		default: // collector full (server overdelivered); fall through
		}
		return
	}
	if s, ok := c.durables[name]; ok {
		select {
		case s.ch <- d:
		default:
			s.dropped.Add(1)
		}
	}
}

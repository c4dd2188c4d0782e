package eventdb

// End-to-end durable-subscription test: the wire-level acceptance flow
// for the unified dispatch layer. A client QSUBs, receives some
// events, drops its connection without acking, reconnects with
// DurableSubscribe and gets every unacked event back — and the same
// holds across a full server+engine restart on the same -dir, with
// the filter binding itself reloaded from the wire_subs store.

import (
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/queue"
	"eventdb/internal/server"
)

// startDurableStack boots the eventdbd arrangement: a durable engine
// with persisted wire subscriptions, served over TCP.
func startDurableStack(t *testing.T, dir string) (*core.Engine, *server.Server) {
	t.Helper()
	eng, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng.Broker.PersistOnlyQueueSubs(true)
	if err := eng.Broker.AttachStore(eng.DB, "wire_subs", eng.Queues, queue.Config{}, nil); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return eng, srv
}

func TestDurableSubscriptionSurvivesReconnectAndRestart(t *testing.T) {
	dir := t.TempDir()
	eng, srv := startDurableStack(t, dir)
	closed := false
	defer func() {
		if !closed {
			srv.Close()
			eng.Close()
		}
	}()

	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const filter = "qty >= 500"

	// Phase 1: attach, receive a few deliveries, ack some, then drop
	// the connection with the rest unacked.
	c1, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ds1, err := c1.DurableSubscribe("big-orders", filter, client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next := tradeStream(11, 8)
	published := map[uint64]bool{}
	for len(published) < 10 {
		ev := next()
		if _, err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
		if v, ok := ev.Get("qty"); ok {
			if q, _ := v.AsInt(); q >= 500 {
				published[uint64(ev.ID)] = true
			}
		}
	}
	received := map[uint64]bool{}
	for i := 0; i < len(published); i++ {
		select {
		case d := <-ds1.C:
			if i < 4 {
				if err := d.Ack(); err != nil {
					t.Fatal(err)
				}
				received[uint64(d.Event.ID)] = true
			}
			// The rest are delivered but never acked — the crash window.
		case <-time.After(5 * time.Second):
			t.Fatalf("phase 1 stalled at %d", i)
		}
	}
	c1.Close() // crash without acking

	// Phase 2: while the consumer is away, more matching events arrive
	// and stage durably.
	for len(published) < 14 {
		ev := next()
		if _, err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
		if v, ok := ev.Get("qty"); ok {
			if q, _ := v.AsInt(); q >= 500 {
				published[uint64(ev.ID)] = true
			}
		}
	}
	pub.Close()

	// Phase 3: full restart — server down, engine down, reopen from
	// the same dir. Queue contents AND the filter binding must come
	// back (wire_subs store), with pre-restart inflight deliveries
	// recovered as ready.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	eng2, srv2 := startDurableStack(t, dir)
	defer func() {
		srv2.Close()
		eng2.Close()
	}()
	if f, ok := eng2.Broker.FilterOf("qsub.big-orders"); !ok || f != filter {
		t.Fatalf("binding after restart = %q, %v; want %q persisted", f, ok, filter)
	}

	// Phase 4: events published after the restart but before the
	// consumer reconnects still stage — the binding is live again.
	pub2, err := client.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	for len(published) < 17 {
		ev := next()
		if _, err := pub2.Publish(ev); err != nil {
			t.Fatal(err)
		}
		if v, ok := ev.Get("qty"); ok {
			if q, _ := v.AsInt(); q >= 500 {
				published[uint64(ev.ID)] = true
			}
		}
	}

	// Phase 5: reconnect and drain. received ∪ redelivered must equal
	// published exactly: every unacked event comes back, nothing acked
	// reappears, nothing is lost.
	c2, err := client.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ds2, err := c2.DurableSubscribe("big-orders", filter, client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	redelivered := map[uint64]bool{}
	want := len(published) - len(received)
	for len(redelivered) < want {
		select {
		case d := <-ds2.C:
			id := uint64(d.Event.ID)
			if received[id] {
				t.Fatalf("event %d delivered again after ack", id)
			}
			if redelivered[id] {
				t.Fatalf("event %d redelivered twice in one attach", id)
			}
			if !published[id] {
				t.Fatalf("event %d was never published (or never matched)", id)
			}
			redelivered[id] = true
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("drain stalled at %d of %d", len(redelivered), want)
		}
	}
	if len(received)+len(redelivered) != len(published) {
		t.Fatalf("received %d + redelivered %d != published %d",
			len(received), len(redelivered), len(published))
	}
	st, err := c2.QueueStats("big-orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 0 || st.Inflight != 0 || st.Dead != 0 {
		t.Fatalf("queue not empty after drain: %+v", st)
	}

	// Epilogue: journal backfill sees the complete history — every
	// message ever staged, across both incarnations — even though the
	// queue is empty now.
	n, _, err := ds2.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(published) {
		t.Errorf("replay returned %d messages, want the full history of %d", n, len(published))
	}
	got := 0
	for got < n {
		select {
		case d := <-ds2.C:
			if !d.Historical {
				t.Fatalf("non-historical delivery during backfill: %+v", d)
			}
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("backfill stalled at %d of %d", got, n)
		}
	}
}

// TestDurableVsEphemeralLossSemantics pins the delivery-semantics
// contrast the dispatch layer unifies: over the same disconnect, the
// ephemeral path loses whatever it had in flight while the durable
// path redelivers it.
func TestDurableVsEphemeralLossSemantics(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// An ephemeral subscriber that dies loses its subscription — and
	// every event published while it is away.
	c1, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Subscribe("eph", "", 16); err != nil {
		t.Fatal(err)
	}
	d1, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.DurableSubscribe("dur", "", client.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	d1.Close()
	waitNoSubscriber := func() {
		deadline := time.Now().Add(5 * time.Second)
		for eng.Broker.Len() > 1 { // the qsub.dur binding stays
			if time.Now().After(deadline) {
				t.Fatalf("ephemeral subscription never detached (%d live)", eng.Broker.Len())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitNoSubscriber()

	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const missed = 5
	for i := 0; i < missed; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}

	// Both reconnect. The ephemeral subscriber starts from nothing;
	// the durable one drains everything it missed.
	c2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	eph, err := c2.Subscribe("eph", "", 16)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	dur, err := d2.DurableSubscribe("dur", "", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < missed; i++ {
		select {
		case d := <-dur.C:
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("durable drain stalled at %d of %d", i, missed)
		}
	}
	select {
	case ev := <-eph.C:
		t.Fatalf("ephemeral subscriber time-traveled: %v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

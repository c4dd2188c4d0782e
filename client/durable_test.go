package client_test

import (
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/server"
)

func startDurableServer(t *testing.T, dir string) *server.Server {
	t.Helper()
	eng, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func recvDelivery(t *testing.T, sub *client.DurableSub) client.Delivery {
	t.Helper()
	select {
	case d, ok := <-sub.C:
		if !ok {
			t.Fatal("delivery channel closed")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	return client.Delivery{}
}

func TestDurableSubscribeAckNack(t *testing.T) {
	srv := startServer(t)
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ds, err := sub.DurableSubscribe("orders", "qty >= 10", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(client.NewEvent("order", map[string]any{"qty": 5})); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(client.NewEvent("order", map[string]any{"qty": 50})); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, ds)
	if v, _ := d.Event.Get("qty"); v.String() != "50" {
		t.Fatalf("delivered qty = %v, want the matching event only", v)
	}
	if d.Attempt != 1 || d.Historical {
		t.Fatalf("delivery = %+v", d)
	}
	// Nack → redelivery with the attempt bumped; then ack for good.
	if err := d.Nack(0); err != nil {
		t.Fatal(err)
	}
	d2 := recvDelivery(t, ds)
	if d2.Attempt != 2 {
		t.Errorf("redelivery attempt = %d, want 2", d2.Attempt)
	}
	if err := d2.Ack(); err != nil {
		t.Fatal(err)
	}
	st, err := sub.QueueStats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if st != (client.QueueStats{}) {
		t.Errorf("queue stats = %+v, want empty", st)
	}
	// The connection's STATS counts the durable consumer.
	cs, err := sub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.QSubs != 1 {
		t.Errorf("stats qsubs = %d", cs.QSubs)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ds.C; ok {
		t.Error("channel open after Close")
	}
}

// TestDurableResumeAfterReconnect is the tentpole flow at client
// level: deliveries in flight when a connection dies are redelivered
// to the next consumer that attaches to the same queue name.
func TestDurableResumeAfterReconnect(t *testing.T) {
	srv := startServer(t)
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	c1, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ds1, err := c1.DurableSubscribe("jobs", "", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const published = 6
	for i := 0; i < published; i++ {
		if _, err := pub.Publish(client.NewEvent("job", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	received := map[uint64]bool{}
	// Process (ack) half, then crash with the rest unacked.
	for i := 0; i < published; i++ {
		d := recvDelivery(t, ds1)
		if i < published/2 {
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
			received[uint64(d.Event.ID)] = true
		}
	}
	c1.Close() // crash: 3 deliveries vanish unacked

	c2, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ds2, err := c2.DurableSubscribe("jobs", "", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	redelivered := map[uint64]bool{}
	for i := 0; i < published-published/2; i++ {
		d := recvDelivery(t, ds2)
		if received[uint64(d.Event.ID)] {
			t.Errorf("acked event %d delivered again", uint64(d.Event.ID))
		}
		redelivered[uint64(d.Event.ID)] = true
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	// received ∪ redelivered == published, no loss, no double-ack.
	if len(received)+len(redelivered) != published {
		t.Errorf("received %d + redelivered %d != published %d",
			len(received), len(redelivered), published)
	}
	st, err := c2.QueueStats("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 0 || st.Inflight != 0 {
		t.Errorf("queue not drained: %+v", st)
	}
}

func TestAutoAckDurableSubscribe(t *testing.T) {
	srv := startServer(t)
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ds, err := sub.DurableSubscribe("fire", "", client.DurableOptions{AutoAck: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, ds)
	// Ack/Nack are no-ops on auto-ack deliveries.
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := d.Nack(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := sub.QueueStats("fire")
		if err != nil {
			t.Fatal(err)
		}
		if st == (client.QueueStats{}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-ack never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConsumePull(t *testing.T) {
	srv := startServer(t)
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Bind the queue, then close the push consumer: messages keep
	// accumulating for the puller.
	binder, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := binder.DurableSubscribe("batch", "", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	binder.Close()
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds2, err := c.DurableSubscribe("batch", "", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Consume conflicts with an open DurableSubscribe on the same conn.
	if _, err := c.Consume("batch", 3); err == nil {
		t.Fatal("Consume alongside DurableSubscribe succeeded")
	}
	// Drain what the push consumer grabbed, then close it and pull.
	var pulled []client.Delivery
	seen := 0
	for seen < 5 {
		select {
		case d := <-ds2.C:
			seen++
			if err := d.Nack(0); err != nil { // hand back for the puller
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at %d of 5", seen)
		}
	}
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
	for len(pulled) < 5 {
		ds, err := c.Consume("batch", 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
		}
		pulled = append(pulled, ds...)
	}
	if len(pulled) != 5 {
		t.Fatalf("pulled %d, want 5", len(pulled))
	}
}

func TestReplayBackfillClient(t *testing.T) {
	srv := startDurableServer(t, t.TempDir())
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ds, err := sub.DurableSubscribe("hist", "n >= 0", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const published = 4
	for i := 0; i < published; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < published; i++ {
		if err := recvDelivery(t, ds).Ack(); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is consumed — yet Replay resurrects the full history
	// from the journal.
	n, next, err := ds.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != published {
		t.Fatalf("replayed %d, want %d", n, published)
	}
	if next == 0 {
		t.Fatal("next LSN = 0")
	}
	seen := map[int64]bool{}
	var lastLSN uint64
	for i := 0; i < published; i++ {
		d := recvDelivery(t, ds)
		if !d.Historical || d.Attempt != 0 {
			t.Fatalf("replay delivery = %+v", d)
		}
		if d.LSN < lastLSN {
			t.Errorf("replay out of order: %d after %d", d.LSN, lastLSN)
		}
		lastLSN = d.LSN
		if err := d.Ack(); err != nil { // no-op on historical
			t.Fatal(err)
		}
		v, _ := d.Event.Get("n")
		nv, _ := v.AsInt()
		seen[nv] = true
	}
	if len(seen) != published {
		t.Errorf("replayed %d distinct events, want %d", len(seen), published)
	}
	// Resuming from the cursor replays nothing.
	if n, _, err := ds.Replay(next); err != nil || n != 0 {
		t.Errorf("resume replay = %d, %v", n, err)
	}
}

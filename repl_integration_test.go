package eventdb

// End-to-end failover test: the acceptance flow for WAL-shipping
// replication. A publisher drives events through a leader into a
// durable subscription; a follower replicates the WAL over the wire —
// through a connection that is killed at a scripted LSN and must
// resume — until it mirrors the leader. The leader then dies, the
// follower promotes, and the consumer reconnects to it: every
// published event is either already acked or redelivered by the new
// leader. Nothing is lost, nothing is invented.

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/repl"
	"eventdb/internal/server"
	"eventdb/internal/storage"
	"eventdb/internal/testnet"
	"eventdb/internal/val"
)

func TestFailoverPromoteResumesDurableConsumer(t *testing.T) {
	// Leader: the eventdbd durable arrangement.
	leng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := leng.RestoreRegistrations(queue.Config{}); err != nil {
		t.Fatal(err)
	}
	lsrv, err := server.StartConfig(leng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaderUp := true
	defer func() {
		if leaderUp {
			lsrv.Close()
			leng.Close()
		}
	}()

	// Follower: replicates through a first connection that dies at a
	// scripted LSN, proving mid-stream reconnect-resume on the way.
	feng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer feng.Close()
	var dials atomic.Int64
	f, err := repl.Start(repl.Config{
		Addr:   lsrv.Addr(),
		Engine: feng,
		Logf:   t.Logf,
		OnPromote: func() {
			if err := feng.RestoreRegistrations(queue.Config{}); err != nil {
				t.Errorf("restore on promote: %v", err)
			}
		},
		Dial: func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				fc := testnet.Wrap(nc)
				fc.KillAtLSN("REPL", 12) // sever the first stream mid-history
				return fc, nil
			}
			return nc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A durable consumer and a publisher, both on the leader.
	consumer, err := client.Dial(lsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const filter = "qty >= 500"
	ds, err := consumer.DurableSubscribe("big-orders", filter, client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := client.Dial(lsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	next := tradeStream(23, 8)
	published := map[uint64]bool{}
	for len(published) < 20 {
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

	// Receive everything, ack only the first half: the unacked half is
	// the failover's redelivery obligation.
	acked := map[uint64]bool{}
	for i := 0; i < len(published); i++ {
		select {
		case d := <-ds.C:
			if len(acked) < len(published)/2 {
				if err := d.Ack(); err != nil {
					t.Fatal(err)
				}
				acked[uint64(d.Event.ID)] = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("leader delivery stalled at %d/%d", i, len(published))
		}
	}

	// The follower must fully mirror the leader — including the acks —
	// before the leader is allowed to die. An ACK settles in memory and
	// its delete is written at the queue's next Settle, which no claim
	// triggers here while half the window stays unacked: settle now, so
	// that the target covers every ack.
	q, ok := leng.Queues.Get("big-orders")
	if !ok {
		t.Fatal("leader has no queue big-orders")
	}
	if err := q.Settle(); err != nil {
		t.Fatal(err)
	}
	target := leng.DB.WAL().NextLSN()
	if !f.WaitCursor(target, 15*time.Second) {
		t.Fatalf("follower cursor %d never reached leader end %d", f.Cursor(), target)
	}
	if dials.Load() < 2 {
		t.Fatalf("replication stream was never killed+resumed (dials=%d)", dials.Load())
	}

	// Leader dies. Consumer's connection dies with it.
	consumer.Close()
	lsrv.Close()
	leng.Close()
	leaderUp = false

	// Failover: promote the follower and serve from it.
	role, err := f.Promote()
	if err != nil || role != "leader" {
		t.Fatalf("Promote = (%q, %v)", role, err)
	}
	fsrv, err := server.StartConfig(feng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()

	// The consumer reconnects to the new leader and resumes: every
	// unacked event redelivers from the replicated queue state.
	c2, err := client.Dial(fsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ds2, err := c2.DurableSubscribe("big-orders", filter, client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	redelivered := map[uint64]bool{}
	want := len(published) - len(acked)
	for len(redelivered) < want {
		select {
		case d := <-ds2.C:
			id := uint64(d.Event.ID)
			if !published[id] {
				t.Fatalf("new leader invented event %d", id)
			}
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
			redelivered[id] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("failover redelivery stalled at %d/%d (acked %d, published %d)",
				len(redelivered), want, len(acked), len(published))
		}
	}
	// received ∪ redelivered == published: no event lost to failover,
	// and nothing acked on the old leader was re-invented on the new.
	for id := range published {
		if !acked[id] && !redelivered[id] {
			t.Errorf("event %d lost in failover", id)
		}
	}
	for id := range redelivered {
		if acked[id] {
			t.Errorf("event %d was acked on the old leader but redelivered", id)
		}
	}

	// The promoted leader accepts new writes end to end.
	pub2, err := client.Dial(fsrv.Addr(), client.RequireLeader())
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	for len(published) < 24 {
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
}

// TestFollowerPublishesNoRegistrationEvents pins that a follower's
// fan-out republishes data, not bookkeeping: while the leader binds,
// rebinds, registers and unregisters, a follower subscriber matching
// everything sees nothing; a row in an ordinary table then reaches it,
// and a trigger and a watch registered on that table add nothing more.
// Promoted, the follower has the leader's registrations: the binding,
// the pattern, the trigger and the watch.
func TestFollowerPublishesNoRegistrationEvents(t *testing.T) {
	leng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leng.Close()
	if err := leng.RestoreRegistrations(queue.Config{}); err != nil {
		t.Fatal(err)
	}
	lsrv, err := server.StartConfig(leng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lsrv.Close()
	feng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer feng.Close()
	f, err := repl.Start(repl.Config{
		Addr: lsrv.Addr(), Engine: feng, Logf: t.Logf,
		OnPromote: func() {
			if err := feng.RestoreRegistrations(queue.Config{}); err != nil {
				t.Errorf("restore on promote: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mu sync.Mutex
	var seen []string
	if err := feng.Subscribe("all", "probe", "", func(d pubsub.Delivery) {
		mu.Lock()
		seen = append(seen, d.Event.Type)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	caughtUp := func() []string {
		t.Helper()
		if !f.WaitCursor(leng.DB.WAL().NextLSN(), 10*time.Second) {
			t.Fatalf("follower cursor %d never reached the leader's end", f.Cursor())
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}

	for _, filter := range []string{"qty >= 500", "qty >= 900"} {
		if _, err := leng.BindQueue("big-orders", filter, queue.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"pair", "gone"} {
		if err := leng.RegisterPattern(name, []byte(`{"steps":[{"alias":"a","type":"x"},{"alias":"b","type":"y"}]}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leng.Unregister(core.KindPattern, "gone"); err != nil {
		t.Fatal(err)
	}
	if got := caughtUp(); len(got) != 0 {
		t.Fatalf("follower published %v for registrations", got)
	}

	schema, err := storage.NewSchema("orders", []storage.Column{{Name: "id", Kind: val.KindInt, NotNull: true}}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := leng.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := leng.DB.Insert("orders", map[string]val.Value{"id": val.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if got := caughtUp(); len(got) != 1 || got[0] != "db.orders.insert" {
		t.Fatalf("follower published %v, want [db.orders.insert]", got)
	}
	if err := leng.Register(core.KindTrig, "cap", []byte(`{"table":"orders","ops":["insert"]}`)); err != nil {
		t.Fatal(err)
	}
	if err := leng.Register(core.KindWatch, "w", []byte(`{"query":{"table":"orders"},"key":["id"]}`)); err != nil {
		t.Fatal(err)
	}
	if got := caughtUp(); len(got) != 1 {
		t.Fatalf("follower published %v after TRIG and WATCH, want [db.orders.insert]", got)
	}

	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if f, ok := feng.Broker.FilterOf("qsub.big-orders"); !ok || f != "qty >= 900" {
		t.Errorf("binding after promotion = %q, %v; want the leader's", f, ok)
	}
	if got := feng.Patterns(); len(got) != 1 || got[0] != "pair" {
		t.Errorf("patterns after promotion = %v, want [pair]", got)
	}
	if _, ok := feng.Triggers.Lookup("cap"); !ok {
		t.Error("no trigger cap after promotion, want the leader's")
	}
	if got := feng.Watches(); len(got) != 1 || got[0] != "w" {
		t.Errorf("watches after promotion = %v, want [w]", got)
	}
}

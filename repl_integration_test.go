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
	"sync/atomic"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/queue"
	"eventdb/internal/repl"
	"eventdb/internal/server"
	"eventdb/internal/testnet"
)

func TestFailoverPromoteResumesDurableConsumer(t *testing.T) {
	// Leader: the eventdbd durable arrangement.
	leng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	leng.Broker.PersistOnlyQueueSubs(true)
	if err := leng.Broker.AttachStore(leng.DB, "wire_subs", leng.Queues, queue.Config{}, nil); err != nil {
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
			feng.Broker.PersistOnlyQueueSubs(true)
			if err := feng.Broker.AttachStore(feng.DB, "wire_subs", feng.Queues, queue.Config{}, nil); err != nil {
				t.Errorf("re-attach on promote: %v", err)
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

package eventdb

// Cross-module integration tests: each test drives the whole pipeline
// (capture → staging → evaluation → consumption) through the public
// API, including crash/recovery and failure injection.

import (
	"fmt"
	"testing"
	"time"

	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
	"eventdb/internal/val"
)

// TestPipelineCrashRecovery builds a durable pipeline, "crashes" it with
// messages staged and inflight, reopens, and verifies nothing was lost.
func TestPipelineCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CreateQueue("work", QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := q.Enqueue(NewEvent("job", map[string]any{"n": i}), queue.EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Two messages inflight (unacked) at crash time.
	q.Dequeue("doomed")
	q.Dequeue("doomed")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	q2, err := eng2.Queues.Open("work", QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for {
		msg, ok, err := q2.Dequeue("worker")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v, _ := msg.Event.Get("n")
		n, _ := v.AsInt()
		if seen[n] {
			t.Errorf("duplicate job %d", n)
		}
		seen[n] = true
		if err := q2.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 10 {
		t.Errorf("recovered %d of 10 jobs", len(seen))
	}
}

// TestPipelinePoisonMessage has a consumer that fails every delivery
// and verifies the message dead-letters instead of looping forever,
// then redrives it after the "fix".
func TestPipelinePoisonMessage(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.CreateQueue("work", QueueConfig{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(NewEvent("job", map[string]any{"poison": true}), queue.EnqueueOptions{})

	attempts := 0
	for i := 0; i < 5; i++ { // more polls than MaxAttempts
		msg, ok, err := q.Dequeue("worker")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		attempts++ // cannot process
		if err := q.Nack(msg.Receipt, 0); err != nil {
			t.Fatal(err)
		}
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want exactly MaxAttempts=3", attempts)
	}
	ids, _, err := q.DeadLetters()
	if err != nil || len(ids) != 1 {
		t.Fatalf("dead letters = %v, %v", ids, err)
	}
	// Fix the consumer, redrive, message processes.
	if err := q.Requeue(ids[0]); err != nil {
		t.Fatal(err)
	}
	msg, ok, err := q.Dequeue("worker")
	if err != nil || !ok {
		t.Fatalf("redriven message not delivered: %v, %v", ok, err)
	}
	if err := q.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Ready != 0 || st.Inflight != 0 {
		t.Errorf("queue not empty after the redriven message was acked: %+v", st)
	}
}

// TestPipelineExternalToInternal feeds foreign JSON events through the
// queue's backing table inside a foreign transaction, alongside a
// domain row — exercising the "extended INSERT" atomicity across the
// capture and staging layers at once.
func TestPipelineExternalToInternal(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	schema, _ := NewSchema("shipments", []Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
	}, "id")
	eng.DB.CreateTable(schema)
	q, _ := eng.CreateQueue("inbound", QueueConfig{})

	// Atomic: shipment row + notification message in one transaction.
	txn := eng.DB.Begin()
	if err := txn.Insert("shipments", map[string]val.Value{"id": val.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTx(txn, NewEvent("shipment.created", map[string]any{"id": 1}), queue.EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// A failing duplicate leaves no orphan message.
	txn2 := eng.DB.Begin()
	txn2.Insert("shipments", map[string]val.Value{"id": val.Int(1)})
	q.EnqueueTx(txn2, NewEvent("shipment.created", map[string]any{"id": 1}), queue.EnqueueOptions{})
	if _, err := txn2.Commit(); err == nil {
		t.Fatal("duplicate shipment committed")
	}
	st := q.Stats()
	if st.Ready != 1 {
		t.Errorf("queue ready = %d, want exactly 1", st.Ready)
	}
}

// TestPipelineFanOutOrdering verifies that multiple queue subscribers
// each see matching events in publish order.
func TestPipelineFanOutOrdering(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sub%d", i)
		if _, err := eng.CreateQueue(name, QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubscribeQueue(name, name, "n >= 0", name, 0); err != nil {
			t.Fatal(err)
		}
	}
	const nEvents = 50
	for i := 0; i < nEvents; i++ {
		if err := eng.Ingest(NewEvent("tick", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		q, _ := eng.Queues.Get(fmt.Sprintf("sub%d", i))
		for want := 0; want < nEvents; want++ {
			msg, ok, err := q.Dequeue("c")
			if err != nil || !ok {
				t.Fatalf("sub%d: missing event %d", i, want)
			}
			v, _ := msg.Event.Get("n")
			n, _ := v.AsInt()
			if n != int64(want) {
				t.Fatalf("sub%d: got %d want %d (ordering broken)", i, n, want)
			}
			q.Ack(msg.Receipt)
		}
	}
}

// TestPipelineSlowConsumerRedelivery simulates a consumer that takes a
// message and dies; the visibility timeout hands it to a healthy
// consumer.
func TestPipelineSlowConsumerRedelivery(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, _ := eng.CreateQueue("work", QueueConfig{VisibilityTimeout: 30 * time.Millisecond})
	q.Enqueue(NewEvent("job", map[string]any{"n": 1}), queue.EnqueueOptions{})
	if _, ok, _ := q.Dequeue("dying-consumer"); !ok {
		t.Fatal("no first delivery")
	}
	// Healthy consumer polls until the reaper redelivers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		msg, ok, err := q.Dequeue("healthy")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if msg.Attempt != 2 {
				t.Errorf("attempt = %d", msg.Attempt)
			}
			q.Ack(msg.Receipt)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("message never redelivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelineDurableRulesSurviveRestart stores rules in a table, kills
// the engine, reopens, reloads, and verifies evaluation resumes.
func TestPipelineDurableRulesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store, err := rules.NewStore(eng.DB, "rules")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("hot", "temp > 30", 0, "notify"); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	eng2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	store2, err := rules.NewStore(eng2.DB, "rules")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	store2.RegisterAction("notify", func(*Event, *Rule) { fired++ })
	if _, err := store2.LoadInto(eng2.Rules); err != nil {
		t.Fatal(err)
	}
	eng2.Ingest(NewEvent("reading", map[string]any{"temp": 40}))
	if fired != 1 {
		t.Errorf("recovered rule fired %d times", fired)
	}
}

// TestPipelineSubscriberIsolation: one subscriber's filter failing on an
// event type it can't evaluate must surface as an error, not silently
// drop (honest failure reporting across the pipeline).
func TestPipelineSubscriberIsolation(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Subscribe("bad", "x", "lower(n) = 'a'", func(pubsub.Delivery) {})
	err = eng.Ingest(NewEvent("tick", map[string]any{"n": 5}))
	if err == nil {
		t.Error("type error in subscription filter was swallowed")
	}
}

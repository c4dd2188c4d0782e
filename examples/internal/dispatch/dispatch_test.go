package dispatch

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func fixture(t *testing.T) (*storage.DB, *queue.Manager, *queue.Queue) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	qm := queue.NewManager(db)
	t.Cleanup(qm.Close)
	q, err := qm.Create("in", queue.Config{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db, qm, q
}

func TestDispatcherRouting(t *testing.T) {
	_, _, q := fixture(t)
	d := NewDispatcher(q)
	var exact, prefixed, fallback atomic.Int64
	d.Handle("trade", func(*event.Event) error { exact.Add(1); return nil })
	d.Handle("db.trades.*", func(*event.Event) error { prefixed.Add(1); return nil })
	d.Handle("*", func(*event.Event) error { fallback.Add(1); return nil })

	q.Enqueue(event.New("trade", nil), queue.EnqueueOptions{})
	q.Enqueue(event.New("db.trades.insert", nil), queue.EnqueueOptions{})
	q.Enqueue(event.New("other", nil), queue.EnqueueOptions{})
	n, err := d.DrainOnce()
	if err != nil || n != 3 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
	if exact.Load() != 1 || prefixed.Load() != 1 || fallback.Load() != 1 {
		t.Errorf("routing = %d/%d/%d", exact.Load(), prefixed.Load(), fallback.Load())
	}
	if d.Handled() != 3 || d.Failed() != 0 {
		t.Errorf("stats = %d/%d", d.Handled(), d.Failed())
	}
}

func TestDispatcherFailureDeadLetters(t *testing.T) {
	_, _, q := fixture(t) // MaxAttempts: 2
	d := NewDispatcher(q)
	d.Handle("*", func(*event.Event) error { return errors.New("poison") })
	q.Enqueue(event.New("bad", nil), queue.EnqueueOptions{})
	d.DrainOnce() // attempt 1: nack
	d.DrainOnce() // attempt 2: dead-letter
	st := q.Stats()
	if st.Dead != 1 {
		t.Errorf("dead = %d, want 1 (stats %+v)", st.Dead, st)
	}
	if d.Failed() != 2 {
		t.Errorf("failed = %d", d.Failed())
	}
}

func TestDispatcherNoHandlerDeadLetters(t *testing.T) {
	_, _, q := fixture(t)
	d := NewDispatcher(q)
	d.Handle("known", func(*event.Event) error { return nil })
	q.Enqueue(event.New("unknown", nil), queue.EnqueueOptions{})
	d.DrainOnce()
	d.DrainOnce()
	if st := q.Stats(); st.Dead != 1 {
		t.Errorf("unrouted message not dead-lettered: %+v", st)
	}
}

func TestDispatcherWorkers(t *testing.T) {
	_, _, q := fixture(t)
	d := NewDispatcher(q)
	d.Workers = 4
	var n atomic.Int64
	d.Handle("*", func(*event.Event) error { n.Add(1); return nil })
	for i := 0; i < 50; i++ {
		q.Enqueue(event.New("e", map[string]any{"i": i}), queue.EnqueueOptions{})
	}
	d.Start()
	deadline := time.After(5 * time.Second)
	for n.Load() < 50 {
		select {
		case <-deadline:
			d.Stop()
			t.Fatalf("only %d handled", n.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
	if st := q.Stats(); st.Ready != 0 || st.Inflight != 0 {
		t.Errorf("queue not drained: %+v", st)
	}
}

func TestHandleValidation(t *testing.T) {
	_, _, q := fixture(t)
	d := NewDispatcher(q)
	if err := d.Handle("x", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := d.Handle("", func(*event.Event) error { return nil }); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestForwarderMultiHop(t *testing.T) {
	db, qm, q1 := fixture(t)
	_ = db
	q2, _ := qm.Create("mid", queue.Config{})
	q3, _ := qm.Create("out", queue.Config{})
	f1 := &Forwarder{Src: q1, Dst: q2}
	f2 := &Forwarder{Src: q2, Dst: q3, Transform: func(ev *event.Event) *event.Event {
		return ev.WithAttr("hop", val.Int(2))
	}}
	for i := 0; i < 10; i++ {
		q1.Enqueue(event.New("e", map[string]any{"i": i}), queue.EnqueueOptions{})
	}
	n1, err := f1.Pump(0)
	if err != nil || n1 != 10 {
		t.Fatalf("hop1: %d %v", n1, err)
	}
	n2, err := f2.Pump(0)
	if err != nil || n2 != 10 {
		t.Fatalf("hop2: %d %v", n2, err)
	}
	if f1.Forwarded() != 10 || f2.Forwarded() != 10 {
		t.Errorf("forwarded = %d/%d", f1.Forwarded(), f2.Forwarded())
	}
	msg, ok, _ := q3.Dequeue("c")
	if !ok {
		t.Fatal("nothing at destination")
	}
	if v, _ := msg.Event.Get("hop"); !val.Equal(v, val.Int(2)) {
		t.Errorf("transform not applied: %v", v)
	}
	if st := q1.Stats(); st.Ready != 0 {
		t.Errorf("source not drained: %+v", st)
	}
}

func TestForwarderDropViaTransform(t *testing.T) {
	_, qm, q1 := fixture(t)
	q2, _ := qm.Create("dst", queue.Config{})
	f := &Forwarder{Src: q1, Dst: q2, Transform: func(ev *event.Event) *event.Event {
		if v, _ := ev.Get("keep"); v.Truthy() {
			return ev
		}
		return nil
	}}
	q1.Enqueue(event.New("e", map[string]any{"keep": true}), queue.EnqueueOptions{})
	q1.Enqueue(event.New("e", map[string]any{"keep": false}), queue.EnqueueOptions{})
	f.Pump(0)
	if f.Forwarded() != 1 {
		t.Errorf("forwarded = %d, want 1", f.Forwarded())
	}
	if st := q2.Stats(); st.Ready != 1 {
		t.Errorf("destination = %+v", st)
	}
}

func TestForwarderPumpLimit(t *testing.T) {
	_, qm, q1 := fixture(t)
	q2, _ := qm.Create("dst", queue.Config{})
	for i := 0; i < 5; i++ {
		q1.Enqueue(event.New("e", nil), queue.EnqueueOptions{})
	}
	f := &Forwarder{Src: q1, Dst: q2}
	n, _ := f.Pump(2)
	if n != 2 {
		t.Errorf("limited pump = %d", n)
	}
	if st := q1.Stats(); st.Ready != 3 {
		t.Errorf("source = %+v", st)
	}
}

func TestServiceBridgeRetries(t *testing.T) {
	_, _, q := fixture(t)
	var calls atomic.Int64
	flaky := ServiceFunc(func(*event.Event) error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	b := &ServiceBridge{Q: q, Svc: flaky, Policy: RetryPolicy{MaxRetries: 5, Backoff: time.Millisecond}}
	q.Enqueue(event.New("e", nil), queue.EnqueueOptions{})
	n, err := b.PumpOnce()
	if err != nil || n != 1 {
		t.Fatalf("pump: %d %v", n, err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	if b.Delivered() != 1 {
		t.Errorf("delivered = %d", b.Delivered())
	}
}

func TestServiceBridgeExhaustionNacks(t *testing.T) {
	_, _, q := fixture(t) // MaxAttempts 2
	dead := ServiceFunc(func(*event.Event) error { return errors.New("down") })
	b := &ServiceBridge{Q: q, Svc: dead, Policy: RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond}}
	q.Enqueue(event.New("e", nil), queue.EnqueueOptions{})
	b.PumpOnce() // queue attempt 1 exhausted in-process retries → nack
	b.PumpOnce() // queue attempt 2 → dead-letter
	if st := q.Stats(); st.Dead != 1 {
		t.Errorf("stats = %+v, want 1 dead", st)
	}
}

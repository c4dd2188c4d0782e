package queue

import (
	"errors"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/vfs"
)

func TestReleaseReturnsDeliveryWithoutCountingAttempt(t *testing.T) {
	_, q := newQueue(t, Config{MaxAttempts: 2})
	if _, err := q.Enqueue(ev(1), EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	// Release must not burn attempts: with MaxAttempts 2, many more
	// release cycles than that must never dead-letter the message.
	for i := 0; i < 5; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("cycle %d: dequeue: %v %v", i, ok, err)
		}
		if msg.Attempt != 1 {
			t.Fatalf("cycle %d: attempt = %d, want 1 (release rolled back)", i, msg.Attempt)
		}
		if err := q.Release(msg.Receipt); err != nil {
			t.Fatalf("cycle %d: release: %v", i, err)
		}
		// Immediately visible again, no visibility timeout to wait out.
		if st := q.Stats(); st.Ready != 1 || st.Inflight != 0 || st.Dead != 0 {
			t.Fatalf("cycle %d: stats after release = %+v", i, st)
		}
	}
	// A released receipt is spent: acking it later must fail.
	msg, _, _ := q.Dequeue("c")
	if err := q.Release(msg.Receipt); err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(msg.Receipt); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("ack after release = %v, want ErrStaleReceipt", err)
	}
}

func TestRequeueReturnsDeadLetterToService(t *testing.T) {
	_, q := newQueue(t, Config{MaxAttempts: 1})
	id, err := q.Enqueue(ev(1), EnqueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msg, ok, err := q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if err := q.Nack(msg.Receipt, 0); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Dead != 1 {
		t.Fatalf("stats = %+v, want 1 dead", st)
	}
	if err := q.Requeue(id); err != nil {
		t.Fatal(err)
	}
	msg, ok, err = q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue after requeue: %v %v", ok, err)
	}
	// Attempts were reset: this is delivery 1 of a fresh budget.
	if msg.Attempt != 1 {
		t.Errorf("attempt = %d, want 1", msg.Attempt)
	}
	if err := q.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
	// Requeue of a live (non-dead) message is refused.
	id2, _ := q.Enqueue(ev(2), EnqueueOptions{})
	if err := q.Requeue(id2); err == nil {
		t.Error("requeue of a ready message succeeded")
	}
}

func TestRequeueDeadLettersBulk(t *testing.T) {
	db, q := newQueue(t, Config{MaxAttempts: 1})
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := q.Enqueue(ev(i), EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue %d: %v %v", i, ok, err)
		}
		if err := q.Nack(msg.Receipt, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.Dead != n {
		t.Fatalf("stats = %+v, want %d dead", st, n)
	}
	// The bulk reset is one transaction: a single commit carries all n
	// state updates.
	commits := 0
	remove := db.OnCommit(func(ci *storage.CommitInfo) {
		if len(ci.Changes) > 0 {
			commits++
		}
	})
	got, err := q.RequeueDeadLetters()
	remove()
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("requeued %d, want %d", got, n)
	}
	if commits != 1 {
		t.Errorf("bulk requeue used %d commits, want 1", commits)
	}
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue after bulk requeue %d: %v %v", i, ok, err)
		}
		if msg.Attempt != 1 {
			t.Errorf("attempt = %d, want fresh budget", msg.Attempt)
		}
		seen[msg.Receipt.ID] = true
	}
	if len(seen) != n {
		t.Errorf("redelivered %d distinct messages, want %d", len(seen), n)
	}
	// Nothing left dead, and an empty pass is a no-op.
	if st := q.Stats(); st.Dead != 0 {
		t.Errorf("stats = %+v, want 0 dead", st)
	}
	if got, err := q.RequeueDeadLetters(); err != nil || got != 0 {
		t.Errorf("empty requeue = %d, %v", got, err)
	}
}

// TestCrashRecoveryRedeliversUnacked is the WAL crash-recovery
// contract end to end: messages dequeued but never acknowledged before
// the process dies must be redelivered after reopening the database,
// and receipts minted before the restart must be rejected as stale.
func TestCrashRecoveryRedeliversUnacked(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(db)
	q, err := m.Create("orders", Config{VisibilityTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := q.Enqueue(ev(i), EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Consume half: ack the first message, leave two inflight without
	// acking — the crash window.
	var stale []Receipt
	first, ok, err := q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if err := q.Ack(first.Receipt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue: %v %v", ok, err)
		}
		stale = append(stale, msg.Receipt)
	}
	// "Crash": close without acking. Close flushes the WAL, which is
	// exactly what a kill -9 after the dequeues' commits would leave.
	m.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	m2 := NewManager(db2)
	t.Cleanup(m2.Close)
	q2, err := m2.Open("orders", Config{VisibilityTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// The acked message is gone; the two inflight ones came back as
	// ready (their consumer died with the old process) alongside the
	// three never delivered.
	if st := q2.Stats(); st.Ready != n-1 || st.Inflight != 0 || st.Dead != 0 {
		t.Fatalf("stats after recovery = %+v, want %d ready", st, n-1)
	}
	redelivered := map[int64]bool{}
	for i := 0; i < n-1; i++ {
		msg, ok, err := q2.Dequeue("c2")
		if err != nil || !ok {
			t.Fatalf("post-recovery dequeue %d: %v %v", i, ok, err)
		}
		redelivered[msg.Receipt.ID] = true
		if msg.Receipt.ID == stale[0].ID || msg.Receipt.ID == stale[1].ID {
			// Redelivery of a pre-crash inflight message counts the
			// attempt: the first delivery really happened.
			if msg.Attempt != 2 {
				t.Errorf("msg %d attempt = %d, want 2", msg.Receipt.ID, msg.Attempt)
			}
		}
		if err := q2.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if redelivered[first.Receipt.ID] {
		t.Error("acked message redelivered after recovery")
	}
	// Receipts minted before the crash are stale in the new
	// incarnation: the redeliveries superseded them.
	for _, r := range stale {
		if err := q2.Ack(r); !errors.Is(err, ErrStaleReceipt) {
			t.Errorf("pre-crash ack = %v, want ErrStaleReceipt", err)
		}
		if err := q2.Nack(r, 0); !errors.Is(err, ErrStaleReceipt) {
			t.Errorf("pre-crash nack = %v, want ErrStaleReceipt", err)
		}
	}
	if st := q2.Stats(); st.Ready != 0 || st.Inflight != 0 || st.Dead != 0 {
		t.Errorf("final stats = %+v, want empty", st)
	}
}

func TestDecodeStagedInsert(t *testing.T) {
	db, q := newQueue(t, Config{})
	var decoded []*event.Event
	remove := db.OnCommit(func(ci *storage.CommitInfo) {
		for i := range ci.Changes {
			c := &ci.Changes[i]
			if c.Table != TableName("in") || c.Kind != storage.Insert {
				continue
			}
			id, e, err := DecodeStagedInsert(c)
			if err != nil {
				t.Errorf("decode: %v", err)
				continue
			}
			if id == 0 {
				t.Error("decode returned id 0")
			}
			decoded = append(decoded, e)
		}
	})
	defer remove()
	want := event.New("order", map[string]any{"n": 42, "sym": "ACME"})
	if _, err := q.Enqueue(want, EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d events, want 1", len(decoded))
	}
	if v, _ := decoded[0].Get("n"); !val.Equal(v, val.Int(42)) {
		t.Errorf("decoded n = %v", v)
	}
	if decoded[0].Type != "order" {
		t.Errorf("decoded type = %q", decoded[0].Type)
	}
	// Non-insert changes are refused.
	if _, _, err := DecodeStagedInsert(&storage.Change{Kind: storage.Update}); err == nil {
		t.Error("decode of an update succeeded")
	}
}

// TestDequeueFailedClaimKeepsMessage: a Dequeue whose claim cannot
// commit — the disk failed under it — reports the error and leaves the
// message deliverable: once storage recovers, the next Dequeue hands it
// out as a first attempt.
func TestDequeueFailedClaimKeepsMessage(t *testing.T) {
	fsys := vfs.NewFaulty(nil)
	db, err := storage.Open(storage.Options{Dir: t.TempDir(), SyncEvery: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := NewManager(db)
	defer m.Close()
	q, err := m.Create("in", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(ev(1), EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}

	fsys.FailSyncsAfter(0, errors.New("injected EIO"))
	if msg, ok, err := q.Dequeue("c"); !errors.Is(err, storage.ErrDegraded) || ok {
		t.Fatalf("dequeue on a failed disk = %v, %v, %v; want ErrDegraded", msg, ok, err)
	}
	fsys.Heal()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	msg, ok, err := q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue after recovery = %v, %v; the message is lost", ok, err)
	}
	if msg.Attempt != 1 {
		t.Errorf("attempt = %d, want 1: the failed claim never committed", msg.Attempt)
	}
	if err := q.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
}

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
			t.Fatalf("cycle %d: attempt = %d, want 1 (a release does not count)", i, msg.Attempt)
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

// TestReleasedReceiptCannotSettleNextHolder: a release hands the message
// on with the same attempt number, so only the holder tells the two
// claims apart — the receipt from before the release must settle
// nothing of the next consumer's.
func TestReleasedReceiptCannotSettleNextHolder(t *testing.T) {
	_, q := newQueue(t, Config{})
	if _, err := q.Enqueue(ev(1), EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	a, _, _ := q.Dequeue("a")
	if err := q.Release(a.Receipt); err != nil {
		t.Fatal(err)
	}
	b, ok, err := q.Dequeue("b")
	if err != nil || !ok || b.Receipt.ID != a.Receipt.ID || b.Attempt != 1 {
		t.Fatalf("b's claim = %+v, %v, %v; want a's message again at attempt 1", b, ok, err)
	}
	for name, settle := range map[string]func(Receipt) error{
		"Ack":     q.Ack,
		"Nack":    func(r Receipt) error { return q.Nack(r, 0) },
		"Release": q.Release,
	} {
		if err := settle(a.Receipt); !errors.Is(err, ErrStaleReceipt) {
			t.Errorf("%s with a's receipt = %v, want ErrStaleReceipt", name, err)
		}
		if st := q.Stats(); st.Inflight != 1 || q.Held("b") != 1 {
			t.Fatalf("after %s with a's receipt: stats %+v, b holds %d; want b's claim in flight", name, st, q.Held("b"))
		}
	}
	if err := q.Ack(b.Receipt); err != nil {
		t.Fatalf("b's own ack: %v", err)
	}
	if st := q.Stats(); st != (Stats{}) {
		t.Fatalf("stats after b's ack = %+v, want empty", st)
	}
}

// TestClaimReadsToken: Claim reads back exactly what Token renders, and
// names the live claim whoever holds it.
func TestClaimReadsToken(t *testing.T) {
	_, q := newQueue(t, Config{})
	if _, err := q.Enqueue(ev(1), EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	m, _, _ := q.Dequeue("a")
	if tok := m.Receipt.Token(); tok != "1-1" {
		t.Fatalf("Token() = %q, want 1-1", tok)
	}
	for _, tc := range []struct {
		token       string
		current, ok bool
	}{
		{"1-1", true, true},
		{"1-2", false, true},
		{"2-1", false, false}, // not in flight
		{"01-1", false, false},
		{"+1-1", false, false},
		{"1-", false, false},
		{"1", false, false},
		{"h7", false, false},
		{"-", false, false},
		{"", false, false},
	} {
		live, current, ok := q.Claim(tc.token)
		if current != tc.current || ok != tc.ok {
			t.Errorf("Claim(%q) = current %v, ok %v; want %v, %v", tc.token, current, ok, tc.current, tc.ok)
		}
		if ok && live != m.Receipt {
			t.Errorf("Claim(%q) = %+v, want the live claim %+v", tc.token, live, m.Receipt)
		}
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

// TestCrashRecoveryRedeliversUnacked is the WAL crash-recovery
// contract end to end: messages dequeued but never acknowledged before
// the process dies are redelivered after reopening the database. A
// claim is never written, so the redelivery carries the same attempt
// number as the delivery the crash cut short — and a delivery that was
// NACKed before the crash still counts.
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
	// Ack the first message, NACK the second once and take it again,
	// and leave it and one more in flight without acking: the crash
	// window.
	first, ok, err := q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if err := q.Ack(first.Receipt); err != nil {
		t.Fatal(err)
	}
	nacked, _, _ := q.Dequeue("c")
	if err := q.Nack(nacked.Receipt, 0); err != nil {
		t.Fatal(err)
	}
	wantAttempt := map[int64]int{}
	for i := 0; i < 2; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue: %v %v", ok, err)
		}
		wantAttempt[msg.Receipt.ID] = msg.Attempt
	}
	if wantAttempt[nacked.Receipt.ID] != 2 {
		t.Fatalf("the NACKed message's second delivery = %v, want attempt 2", wantAttempt)
	}
	// "Crash": close without acking; nothing the claims did is on disk.
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
	// The acked message is gone; the two in flight came back as ready
	// alongside the three never delivered.
	if st := q2.Stats(); st.Ready != n-1 || st.Inflight != 0 || st.Dead != 0 {
		t.Fatalf("stats after recovery = %+v, want %d ready", st, n-1)
	}
	for i := 0; i < n-1; i++ {
		msg, ok, err := q2.Dequeue("c2")
		if err != nil || !ok {
			t.Fatalf("post-recovery dequeue %d: %v %v", i, ok, err)
		}
		if msg.Receipt.ID == first.Receipt.ID {
			t.Error("acked message redelivered after recovery")
		}
		want, wasInflight := wantAttempt[msg.Receipt.ID]
		if !wasInflight {
			want = 1
		}
		if msg.Attempt != want {
			t.Errorf("msg %d attempt = %d, want %d", msg.Receipt.ID, msg.Attempt, want)
		}
		if err := q2.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if st := q2.Stats(); st.Ready != 0 || st.Inflight != 0 || st.Dead != 0 {
		t.Errorf("final stats = %+v, want empty", st)
	}
}

// TestOlderDaemonInflightRowRecoversReady: a daemon that logged its
// claims left rows in state "inflight", with the claim's attempt and
// deadline written. Such a row is ready at once after a restart, with
// the next attempt, and attaching does not rewrite it.
func TestOlderDaemonInflightRowRecoversReady(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(db)
	q, err := m.Create("orders", Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := q.Enqueue(ev(1), EnqueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table(TableName("orders"))
	_, rid, _ := tbl.GetByPK(val.Int(id))
	err = db.UpdateRow(TableName("orders"), rid, map[string]val.Value{
		"state": val.String(stateInflight), "attempts": val.Int(1),
		"visible_at": val.Int(timeNow().Add(time.Hour).UnixNano()), "consumer": val.String("conn1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	seq := db2.Seq()
	m2 := NewManager(db2)
	t.Cleanup(m2.Close)
	q2, err := m2.Open("orders", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Seq() != seq {
		t.Error("attaching rewrote the older daemon's row")
	}
	if st := q2.Stats(); st.Ready != 1 || st.Inflight != 0 {
		t.Fatalf("stats after recovery = %+v, want 1 ready", st)
	}
	msg, ok, err := q2.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("dequeue after recovery: %v %v", ok, err)
	}
	if msg.Receipt.ID != id || msg.Attempt != 2 {
		t.Errorf("redelivery = message %d attempt %d, want message %d attempt 2", msg.Receipt.ID, msg.Attempt, id)
	}
	if err := q2.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
	if tbl2, _ := db2.Table(TableName("orders")); tbl2.Len() != 0 {
		t.Errorf("the acknowledged row is still in the table")
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

// TestDequeueFailedClaimKeepsMessage: a Dequeue on a database that a
// failed write has degraded reports ErrDegraded and claims nothing; once
// storage recovers, the next Dequeue hands the message out as a first
// attempt.
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

	degrade(t, fsys, q)
	if msg, ok, err := q.Dequeue("c"); !errors.Is(err, storage.ErrDegraded) || ok {
		t.Fatalf("dequeue on a degraded database = %v, %v, %v; want ErrDegraded", msg, ok, err)
	}
	if st := q.Stats(); st.Ready != 1 || st.Inflight != 0 {
		t.Fatalf("after the refused claim: %+v, want 1 ready", st)
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
		t.Errorf("attempt = %d, want 1: the refused claim never happened", msg.Attempt)
	}
	if err := q.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
}

// degrade fail-stops q's database the way a disk does: a write whose
// sync fails.
func degrade(t *testing.T, fsys *vfs.Faulty, q *Queue) {
	t.Helper()
	fsys.FailSyncsAfter(0, errors.New("injected EIO"))
	if _, err := q.Enqueue(ev(-1), EnqueueOptions{}); err == nil {
		t.Fatal("an enqueue on a failing disk committed")
	}
	if bad, _ := q.db.Degraded(); !bad {
		t.Fatal("the failed write did not degrade the database")
	}
}

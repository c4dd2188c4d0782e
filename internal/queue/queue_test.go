package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func newQueue(t *testing.T, cfg Config) (*storage.DB, *Queue) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m := NewManager(db)
	t.Cleanup(m.Close)
	q, err := m.Create("in", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

func ev(n int) *event.Event {
	return event.New("test", map[string]any{"n": n})
}

func TestEnqueueDequeueAck(t *testing.T) {
	_, q := newQueue(t, Config{})
	id, err := q.Enqueue(ev(1), EnqueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	msg, ok, err := q.Dequeue("c1")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if v, _ := msg.Event.Get("n"); !val.Equal(v, val.Int(1)) {
		t.Errorf("payload n = %v", v)
	}
	if msg.Attempt != 1 {
		t.Errorf("attempt = %d", msg.Attempt)
	}
	// Queue drained while inflight.
	if _, ok, _ := q.Dequeue("c1"); ok {
		t.Error("message delivered twice")
	}
	if err := q.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Ready != 0 || st.Inflight != 0 || st.Dead != 0 {
		t.Errorf("stats after ack = %+v", st)
	}
	// Double ack fails.
	if err := q.Ack(msg.Receipt); err == nil {
		t.Error("double ack accepted")
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	_, q := newQueue(t, Config{})
	for i := 1; i <= 5; i++ {
		q.Enqueue(ev(i), EnqueueOptions{})
	}
	for i := 1; i <= 5; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		if v, _ := msg.Event.Get("n"); !val.Equal(v, val.Int(int64(i))) {
			t.Errorf("dequeue %d got n=%v", i, v)
		}
		q.Ack(msg.Receipt)
	}
}

func TestPriorityOrdering(t *testing.T) {
	_, q := newQueue(t, Config{})
	q.Enqueue(ev(1), EnqueueOptions{Priority: 0})
	q.Enqueue(ev(2), EnqueueOptions{Priority: 5})
	q.Enqueue(ev(3), EnqueueOptions{Priority: 5})
	q.Enqueue(ev(4), EnqueueOptions{Priority: 1})
	want := []int64{2, 3, 4, 1}
	for _, w := range want {
		msg, ok, _ := q.Dequeue("c")
		if !ok {
			t.Fatal("drained early")
		}
		if v, _ := msg.Event.Get("n"); !val.Equal(v, val.Int(w)) {
			t.Errorf("want n=%d got %v", w, v)
		}
		q.Ack(msg.Receipt)
	}
}

func TestDelayedVisibility(t *testing.T) {
	_, q := newQueue(t, Config{})
	base := time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)
	now := base
	timeNow = func() time.Time { return now }
	defer func() { timeNow = func() time.Time { return time.Now().UTC() } }()

	q.Enqueue(ev(1), EnqueueOptions{Delay: time.Minute})
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("delayed message visible immediately")
	}
	now = base.Add(2 * time.Minute)
	msg, ok, _ := q.Dequeue("c")
	if !ok {
		t.Fatal("delayed message never became visible")
	}
	q.Ack(msg.Receipt)
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	base := time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)
	now := base
	timeNow = func() time.Time { return now }
	defer func() { timeNow = func() time.Time { return time.Now().UTC() } }()

	_, q := newQueue(t, Config{VisibilityTimeout: 10 * time.Second, MaxAttempts: 3})
	q.Enqueue(ev(1), EnqueueOptions{})
	msg1, ok, _ := q.Dequeue("crashy")
	if !ok {
		t.Fatal("no delivery")
	}
	// Consumer "crashes": no ack. After the timeout it redelivers.
	now = now.Add(11 * time.Second)
	msg2, ok, _ := q.Dequeue("healthy")
	if !ok {
		t.Fatal("no redelivery after visibility timeout")
	}
	if msg2.Attempt != 2 {
		t.Errorf("redelivery attempt = %d, want 2", msg2.Attempt)
	}
	// The crashed consumer's receipt is now stale.
	if err := q.Ack(msg1.Receipt); err != ErrStaleReceipt {
		t.Errorf("stale ack error = %v", err)
	}
	// Healthy consumer acks fine.
	if err := q.Ack(msg2.Receipt); err != nil {
		t.Fatal(err)
	}
}

func TestNackAndDeadLetter(t *testing.T) {
	_, q := newQueue(t, Config{MaxAttempts: 2})
	q.Enqueue(ev(42), EnqueueOptions{})
	m1, _, _ := q.Dequeue("c")
	if err := q.Nack(m1.Receipt, 0); err != nil {
		t.Fatal(err)
	}
	m2, ok, _ := q.Dequeue("c")
	if !ok || m2.Attempt != 2 {
		t.Fatalf("second delivery: ok=%v attempt=%d", ok, m2.Attempt)
	}
	// Attempt 2 of 2: nack dead-letters.
	if err := q.Nack(m2.Receipt, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("dead message delivered")
	}
	st := q.Stats()
	if st.Dead != 1 {
		t.Errorf("dead = %d", st.Dead)
	}
	ids, evs, err := q.DeadLetters()
	if err != nil || len(ids) != 1 {
		t.Fatalf("dead letters: %v %v", ids, err)
	}
	if v, _ := evs[0].Get("n"); !val.Equal(v, val.Int(42)) {
		t.Errorf("dead letter payload = %v", v)
	}
	// Requeue restores delivery with a fresh budget.
	if err := q.Requeue(ids[0]); err != nil {
		t.Fatal(err)
	}
	m3, ok, _ := q.Dequeue("c")
	if !ok || m3.Attempt != 1 {
		t.Fatalf("redriven delivery: ok=%v attempt=%d", ok, m3.Attempt)
	}
	q.Ack(m3.Receipt)
	if err := q.Requeue(999); err == nil {
		t.Error("redrive of missing message accepted")
	}
}

func TestTransactionalEnqueue(t *testing.T) {
	db, q := newQueue(t, Config{})
	s, _ := storage.NewSchema("orders", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
	}, "id")
	db.CreateTable(s)

	// Extended INSERT: order row + message commit atomically.
	txn := db.Begin()
	txn.Insert("orders", map[string]val.Value{"id": val.Int(1)})
	if _, err := q.EnqueueTx(txn, ev(1), EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	// Before commit: nothing deliverable.
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("uncommitted message delivered")
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Dequeue("c"); !ok {
		t.Error("committed message not delivered")
	}

	// Rollback discards the message.
	txn2 := db.Begin()
	txn2.Insert("orders", map[string]val.Value{"id": val.Int(2)})
	q.EnqueueTx(txn2, ev(2), EnqueueOptions{})
	txn2.Rollback()
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("rolled-back message delivered")
	}

	// Failed transaction (duplicate order PK) also discards the message.
	txn3 := db.Begin()
	txn3.Insert("orders", map[string]val.Value{"id": val.Int(1)})
	q.EnqueueTx(txn3, ev(3), EnqueueOptions{})
	if _, err := txn3.Commit(); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("message from failed txn delivered")
	}
}

func TestDurableQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(db)
	q, err := m.Create("in", Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		q.Enqueue(ev(i), EnqueueOptions{})
	}
	// One message is inflight at "crash" time.
	inflightMsg, _, _ := q.Dequeue("gone")
	_ = inflightMsg
	db.Close()

	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2 := NewManager(db2)
	defer m2.Close()
	q2, err := m2.Open("in", Config{})
	if err != nil {
		t.Fatal(err)
	}
	// All five come back: the inflight one is redelivered because its
	// consumer died with the old process.
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		msg, ok, err := q2.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("recovery dequeue %d: ok=%v err=%v", i, ok, err)
		}
		n, _ := msg.Event.Get("n")
		nv, _ := n.AsInt()
		if seen[nv] {
			t.Errorf("duplicate n=%d", nv)
		}
		seen[nv] = true
		q2.Ack(msg.Receipt)
	}
	if _, ok, _ := q2.Dequeue("c"); ok {
		t.Error("extra message after recovery")
	}
	// New enqueues avoid ID collisions with recovered messages.
	id, err := q2.Enqueue(ev(99), EnqueueOptions{})
	if err != nil {
		t.Fatalf("post-recovery enqueue: %v", err)
	}
	if id <= 5 {
		t.Errorf("post-recovery id = %d, should exceed recovered ids", id)
	}
}

func TestWaitDequeue(t *testing.T) {
	_, q := newQueue(t, Config{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var got *Msg
	go func() {
		defer wg.Done()
		msg, ok, err := q.WaitDequeue("c", 5*time.Second, done)
		if err != nil || !ok {
			t.Errorf("WaitDequeue: ok=%v err=%v", ok, err)
			return
		}
		got = msg
	}()
	time.Sleep(20 * time.Millisecond)
	q.Enqueue(ev(7), EnqueueOptions{})
	wg.Wait()
	if got == nil {
		t.Fatal("no message")
	}
	if v, _ := got.Event.Get("n"); !val.Equal(v, val.Int(7)) {
		t.Errorf("n = %v", v)
	}
	// Timeout path.
	start := time.Now()
	_, ok, err := q.WaitDequeue("c", 30*time.Millisecond, nil)
	if ok || err != nil {
		t.Errorf("timeout WaitDequeue: ok=%v err=%v", ok, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("returned before timeout")
	}
	// Done-channel path.
	close(done)
	if _, ok, _ := q.WaitDequeue("c", time.Hour, done); ok {
		t.Error("closed done should end wait")
	}
}

func TestConcurrentConsumersNoDuplicates(t *testing.T) {
	_, q := newQueue(t, Config{})
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := q.Enqueue(ev(i), EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := map[int64]int{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, ok, err := q.Dequeue("w")
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				v, _ := msg.Event.Get("n")
				nv, _ := v.AsInt()
				mu.Lock()
				seen[nv]++
				mu.Unlock()
				if err := q.Ack(msg.Receipt); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("message %d delivered %d times", k, c)
		}
	}
}

func TestForeignInsertBecomesMessage(t *testing.T) {
	// A row INSERTed directly into the backing table (e.g. by a foreign
	// system's transaction) is a deliverable message.
	db, q := newQueue(t, Config{})
	payload := event.Encode(nil, ev(123))
	_, err := db.Insert(TableName("in"), map[string]val.Value{
		"id":          val.Int(1000),
		"pri":         val.Int(0),
		"visible_at":  val.Int(0),
		"attempts":    val.Int(0),
		"state":       val.String("ready"),
		"enqueued_at": val.Int(timeNow().UnixNano()),
		"payload":     val.Bytes(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, ok, err := q.Dequeue("c")
	if err != nil || !ok {
		t.Fatalf("foreign insert not delivered: %v %v", ok, err)
	}
	if v, _ := msg.Event.Get("n"); !val.Equal(v, val.Int(123)) {
		t.Errorf("n = %v", v)
	}
	// Later internal enqueues must not collide with the foreign ID.
	id, err := q.Enqueue(ev(1), EnqueueOptions{})
	if err != nil || id <= 1000 {
		t.Errorf("id after foreign insert = %d, %v", id, err)
	}
}

func TestManagerOpenErrors(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	defer db.Close()
	m := NewManager(db)
	defer m.Close()
	if _, err := m.Open("nope", Config{}); err == nil {
		t.Error("open of missing queue accepted")
	}
	if _, ok := m.Get("nope"); ok {
		t.Error("Get of missing queue ok")
	}
	q, _ := m.Create("a", Config{})
	if q2, ok := m.Get("a"); !ok || q2 != q {
		t.Error("Get should return the attached queue")
	}
	if _, err := m.Create("a", Config{}); err == nil {
		t.Error("duplicate create accepted")
	}
	if err := q.Nack(Receipt{Queue: "a", ID: 99}, 0); err != ErrStaleReceipt {
		t.Errorf("nack unknown receipt: %v", err)
	}
}

func TestNilEventRejected(t *testing.T) {
	_, q := newQueue(t, Config{})
	if _, err := q.Enqueue(nil, EnqueueOptions{}); err == nil {
		t.Error("nil event accepted")
	}
}

// --- batched staging (group commit) -------------------------------------

func TestEnqueueBatchSingleCommit(t *testing.T) {
	db, q := newQueue(t, Config{})
	evs := make([]*event.Event, 16)
	for i := range evs {
		evs[i] = ev(i)
	}
	seq0 := db.Seq()
	ids, err := q.EnqueueBatch(evs, EnqueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(evs) {
		t.Fatalf("staged %d ids, want %d", len(ids), len(evs))
	}
	if got := db.Seq() - seq0; got != 1 {
		t.Errorf("batch of %d took %d commits, want 1", len(evs), got)
	}
	for i := range ids {
		if i > 0 && ids[i] != ids[i-1]+1 {
			t.Errorf("ids not sequential: %v", ids)
			break
		}
	}
	for i := 0; i < len(evs); i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if err := q.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("extra message staged")
	}
}

func TestEnqueueBatchAtomicOnError(t *testing.T) {
	db, q := newQueue(t, Config{})
	calls := 0
	remove := db.OnBefore(TableName("in"), func(*storage.Change) error {
		calls++
		if calls == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	defer remove()
	evs := []*event.Event{ev(1), ev(2), ev(3), ev(4)}
	if _, err := q.EnqueueBatch(evs, EnqueueOptions{}); err == nil {
		t.Fatal("vetoed batch should fail")
	}
	if st := q.Stats(); st.Ready != 0 {
		t.Errorf("failed batch left %d staged messages", st.Ready)
	}
	if _, ok, _ := q.Dequeue("c"); ok {
		t.Error("failed batch delivered a message")
	}
}

func TestEnqueueBatchEmpty(t *testing.T) {
	_, q := newQueue(t, Config{})
	ids, err := q.EnqueueBatch(nil, EnqueueOptions{})
	if err != nil || ids != nil {
		t.Errorf("empty batch: ids=%v err=%v", ids, err)
	}
}

func TestEnqueueGroupSingleCommitSharedPayload(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m := NewManager(db)
	t.Cleanup(m.Close)
	var targets []Target
	for i := 0; i < 4; i++ {
		q, err := m.Create(fmt.Sprintf("t%d", i), Config{})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, Target{Queue: q, Opts: EnqueueOptions{Priority: i}})
	}
	seq0 := db.Seq()
	if err := EnqueueGroup(ev(7), targets); err != nil {
		t.Fatal(err)
	}
	if got := db.Seq() - seq0; got != 1 {
		t.Errorf("group staging took %d commits, want 1", got)
	}
	for i, tg := range targets {
		msg, ok, err := tg.Queue.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("queue %d: ok=%v err=%v", i, ok, err)
		}
		if msg.Priority != i {
			t.Errorf("queue %d: priority %d, want %d", i, msg.Priority, i)
		}
		if v, _ := msg.Event.Get("n"); !val.Equal(v, val.Int(7)) {
			t.Errorf("queue %d: wrong payload %v", i, msg.Event)
		}
	}
}

func TestEnqueueGroupRejectsMixedDatabases(t *testing.T) {
	_, q1 := newQueue(t, Config{})
	_, q2 := newQueue(t, Config{})
	err := EnqueueGroup(ev(1), []Target{{Queue: q1}, {Queue: q2}})
	if err == nil {
		t.Fatal("mixed-database group should fail")
	}
	if st := q1.Stats(); st.Ready != 0 {
		t.Error("mixed-database group staged into first queue anyway")
	}
}

func TestEnqueueGroupAtomicOnVeto(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m := NewManager(db)
	t.Cleanup(m.Close)
	ok1, err := m.Create("ok1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := m.Create("bad", Config{})
	if err != nil {
		t.Fatal(err)
	}
	remove := db.OnBefore(TableName("bad"), func(*storage.Change) error {
		return fmt.Errorf("full")
	})
	defer remove()
	err = EnqueueGroup(ev(1), []Target{{Queue: ok1}, {Queue: bad}})
	if err == nil {
		t.Fatal("vetoed group should fail")
	}
	if st := ok1.Stats(); st.Ready != 0 {
		t.Error("vetoed group staged into the healthy queue (not atomic)")
	}
}

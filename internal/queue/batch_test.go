package queue

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/vfs"
)

// fakeClock points timeNow at a settable instant for the test's life.
func fakeClock(t *testing.T) *time.Time {
	t.Helper()
	now := time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)
	timeNow = func() time.Time { return now }
	t.Cleanup(func() { timeNow = func() time.Time { return time.Now().UTC() } })
	return &now
}

func msgN(t *testing.T, m *Msg) int64 {
	t.Helper()
	v, _ := m.Event.Get("n")
	n, ok := v.AsInt()
	if !ok {
		t.Fatalf("message %d carries no n", m.Receipt.ID)
	}
	return n
}

// TestDequeueBatchMatchesDequeue is the differential that lets Dequeue
// be the n = 1 case of DequeueBatch: two queues take the same seeded
// script of enqueues (mixed priorities and delays), clock advances
// (visibility timeouts expire, delayed messages come due, attempts run
// out) and settlements; one is read with DequeueBatch(n), the other
// with n calls of Dequeue. They must hand out the same messages in the
// same order with the same attempts, honour each other's settlements
// the same way, and end in the same state.
func TestDequeueBatchMatchesDequeue(t *testing.T) {
	var redelivered, dead int // the script must reach both, or it tests less than it says
	for seed := int64(1); seed <= 25; seed++ {
		now := fakeClock(t)
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{VisibilityTimeout: 10 * time.Second, MaxAttempts: 3}
		_, batched := newQueue(t, cfg)
		_, single := newQueue(t, cfg)
		var heldB, heldS []Receipt // unsettled deliveries, index for index
		next := 0
		for step := 0; step < 300; step++ {
			switch rng.Intn(7) {
			case 0, 1:
				for i := rng.Intn(8); i >= 0; i-- {
					next++
					opts := EnqueueOptions{Priority: rng.Intn(3)}
					if rng.Intn(4) == 0 {
						opts.Delay = time.Duration(1+rng.Intn(15)) * time.Second
					}
					for _, q := range []*Queue{batched, single} {
						if _, err := q.Enqueue(ev(next), opts); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 2:
				*now = now.Add(time.Duration(rng.Intn(12000)) * time.Millisecond)
			case 3, 4, 5:
				n := 1 + rng.Intn(12)
				got, err := batched.DequeueBatch("c", n)
				if err != nil {
					t.Fatal(err)
				}
				var want []*Msg
				for i := 0; i < n; i++ {
					m, ok, err := single.Dequeue("c")
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					want = append(want, m)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: DequeueBatch(%d) gave %d messages, %d x Dequeue gave %d", seed, step, n, len(got), n, len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Receipt.ID != w.Receipt.ID || g.Attempt != w.Attempt || g.Priority != w.Priority ||
						msgN(t, g) != msgN(t, w) || !g.EnqueuedAt.Equal(w.EnqueuedAt) {
						t.Fatalf("seed %d step %d: message %d of the batch is id=%d attempt=%d pri=%d n=%d, Dequeue gave id=%d attempt=%d pri=%d n=%d",
							seed, step, i, g.Receipt.ID, g.Attempt, g.Priority, msgN(t, g), w.Receipt.ID, w.Attempt, w.Priority, msgN(t, w))
					}
					heldB, heldS = append(heldB, g.Receipt), append(heldS, w.Receipt)
					if g.Attempt > 1 {
						redelivered++
					}
				}
			case 6:
				if len(heldB) == 0 {
					continue
				}
				i := rng.Intn(len(heldB))
				var eb, es error
				switch rng.Intn(3) {
				case 0:
					eb, es = batched.Ack(heldB[i]), single.Ack(heldS[i])
				case 1:
					d := time.Duration(rng.Intn(3)) * time.Second
					eb, es = batched.Nack(heldB[i], d), single.Nack(heldS[i], d)
				case 2:
					eb, es = batched.Release(heldB[i]), single.Release(heldS[i])
				}
				// A receipt whose delivery expired meanwhile is stale on
				// both sides or on neither.
				if !errors.Is(eb, es) {
					t.Fatalf("seed %d step %d: settling gave %v on the batched queue, %v on the other", seed, step, eb, es)
				}
				heldB, heldS = append(heldB[:i], heldB[i+1:]...), append(heldS[:i], heldS[i+1:]...)
			}
		}
		if b, s := batched.Stats(), single.Stats(); b != s {
			t.Fatalf("seed %d: final state %+v on the batched queue, %+v on the other", seed, b, s)
		}
		bIDs, _, _ := batched.DeadLetters()
		sIDs, _, _ := single.DeadLetters()
		if len(bIDs) != len(sIDs) {
			t.Fatalf("seed %d: %d dead letters on the batched queue, %d on the other", seed, len(bIDs), len(sIDs))
		}
		dead += len(bIDs)
	}
	if redelivered == 0 || dead == 0 {
		t.Fatalf("the scripts produced %d redeliveries and %d dead letters; both must occur", redelivered, dead)
	}
}

// TestDequeueBatchBounds: a claim takes at most maxClaim messages, and
// nothing when asked for nothing.
func TestDequeueBatchBounds(t *testing.T) {
	_, q := newQueue(t, Config{})
	evs := make([]*event.Event, 0, maxClaim+50)
	for i := 0; i < maxClaim+50; i++ {
		evs = append(evs, ev(i))
	}
	if _, err := q.EnqueueBatch(evs, EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if msgs, err := q.DequeueBatch("c", 0); err != nil || len(msgs) != 0 {
		t.Fatalf("DequeueBatch(0) = %d messages, %v", len(msgs), err)
	}
	msgs, err := q.DequeueBatch("c", 10*maxClaim)
	if err != nil || len(msgs) != maxClaim {
		t.Fatalf("DequeueBatch(%d) = %d messages, %v; want %d", 10*maxClaim, len(msgs), err, maxClaim)
	}
	if st := q.Stats(); st.Inflight != maxClaim || st.Ready != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDequeueBatchFailedClaimKeepsEveryMessage: a batch claim whose
// commit the disk refuses claims nothing — every popped message goes
// back, and once storage recovers the whole batch is handed out, in
// order, as first attempts.
func TestDequeueBatchFailedClaimKeepsEveryMessage(t *testing.T) {
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
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := q.Enqueue(ev(i), EnqueueOptions{Priority: i % 3}); err != nil {
			t.Fatal(err)
		}
	}

	fsys.FailSyncsAfter(0, errors.New("injected EIO"))
	if msgs, err := q.DequeueBatch("c", n); !errors.Is(err, storage.ErrDegraded) || len(msgs) != 0 {
		t.Fatalf("batch claim on a failed disk = %d messages, %v; want none and ErrDegraded", len(msgs), err)
	}
	if st := q.Stats(); st.Ready != n || st.Inflight != 0 {
		t.Fatalf("after the failed claim: %+v, want all %d ready", st, n)
	}
	fsys.Heal()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	msgs, err := q.DequeueBatch("c", n)
	if err != nil || len(msgs) != n {
		t.Fatalf("batch claim after recovery = %d messages, %v; want %d", len(msgs), err, n)
	}
	for i, m := range msgs {
		if m.Attempt != 1 {
			t.Errorf("message %d: attempt %d, want 1: the failed claim never committed", m.Receipt.ID, m.Attempt)
		}
		if i > 0 {
			p := msgs[i-1]
			if p.Priority < m.Priority || (p.Priority == m.Priority && p.Receipt.ID > m.Receipt.ID) {
				t.Errorf("messages %d, %d out of (priority desc, id asc) order", p.Receipt.ID, m.Receipt.ID)
			}
		}
		if err := q.Ack(m.Receipt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReapSkipsUntilEarliestDeadline: Dequeue looks for expired
// deliveries only once the clock reaches the earliest deadline in
// flight, and Reap — the idle consumer's path — still expires them.
func TestReapSkipsUntilEarliestDeadline(t *testing.T) {
	now := fakeClock(t)
	_, q := newQueue(t, Config{VisibilityTimeout: 10 * time.Second})
	for i := 0; i < 3; i++ {
		q.Enqueue(ev(i), EnqueueOptions{})
	}
	first, _, _ := q.Dequeue("c")
	*now = now.Add(4 * time.Second)
	second, _, _ := q.Dequeue("c")
	if want := first.EnqueuedAt.Add(10 * time.Second).UnixNano(); q.reapAfter != want {
		t.Fatalf("reapAfter = %d, want the first delivery's deadline %d", q.reapAfter, want)
	}
	// Settling the earliest leaves the bound stale but still a bound.
	if err := q.Ack(first.Receipt); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(7 * time.Second) // past the first deadline, before the second
	q.Reap()
	if !q.ReceiptCurrent(second.Receipt) {
		t.Fatal("a delivery was reaped before its deadline")
	}
	if want := second.EnqueuedAt.Add(14 * time.Second).UnixNano(); q.reapAfter != want {
		t.Fatalf("after a scan reapAfter = %d, want the remaining deadline %d", q.reapAfter, want)
	}
	*now = now.Add(4 * time.Second)
	q.Reap()
	if q.ReceiptCurrent(second.Receipt) {
		t.Fatal("Reap left an expired delivery in flight")
	}
	m, ok, _ := q.Dequeue("c")
	if !ok || m.Receipt.ID != second.Receipt.ID || m.Attempt != 2 {
		t.Fatalf("redelivery = %+v, %v; want message %d, attempt 2", m, ok, second.Receipt.ID)
	}
}

// BenchmarkDequeueInflight256 is Dequeue + Ack with 256 deliveries in
// flight, a consumer at its default prefetch limit: reapExpired runs on
// every Dequeue and must not walk them.
func BenchmarkDequeueInflight256(b *testing.B) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	m := NewManager(db)
	defer m.Close()
	q, err := m.Create("in", Config{})
	if err != nil {
		b.Fatal(err)
	}
	const inflight = 256
	evs := make([]*event.Event, b.N+inflight)
	for i := range evs {
		evs[i] = ev(i)
	}
	for lo := 0; lo < len(evs); lo += 1024 {
		if _, err := q.EnqueueBatch(evs[lo:min(lo+1024, len(evs))], EnqueueOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	ring := make([]Receipt, inflight)
	for i := range ring {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		ring[i] = msg.Receipt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		if err := q.Ack(ring[i%inflight]); err != nil {
			b.Fatal(err)
		}
		ring[i%inflight] = msg.Receipt
	}
}

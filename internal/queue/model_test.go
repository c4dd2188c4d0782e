package queue

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"eventdb/internal/storage"
)

// modelMsg is one message as the model sees it.
type modelMsg struct {
	pri      int
	attempts int // persisted: deliveries that ended in a NACK or a timeout
	state    string
	attempt  int    // the live delivery's attempt, while state is inflight
	deadline int64  // the live delivery's visibility deadline
	holder   string // the live delivery's consumer
}

// Model states beside the table's: acked is settled in memory with its
// delete not yet committed, gone is deleted.
const (
	modelAcked = "acked"
	modelGone  = "gone"
)

// queueModel is what a queue's behaviour reduces to: which message each
// claim hands out with which attempt, what a settlement does, and which
// acknowledged messages a crash gives back.
type queueModel struct {
	msgs        map[int64]*modelMsg
	maxAttempts int
}

func (m *queueModel) count(state string) int {
	n := 0
	for _, mm := range m.msgs {
		if mm.state == state {
			n++
		}
	}
	return n
}

// held counts the deliveries one consumer holds.
func (m *queueModel) held(consumer string) int {
	n := 0
	for _, mm := range m.msgs {
		if mm.state == stateInflight && mm.holder == consumer {
			n++
		}
	}
	return n
}

// settle deletes every acknowledged message.
func (m *queueModel) settle() {
	for _, mm := range m.msgs {
		if mm.state == modelAcked {
			mm.state = modelGone
		}
	}
}

// fail is a delivery's verdict: a NACK or a timeout.
func (m *queueModel) fail(mm *modelMsg) {
	mm.attempts = mm.attempt
	mm.state = stateReady
	if mm.attempts >= m.maxAttempts {
		mm.state = stateDead
	}
}

// reap expires the deliveries whose deadline has passed.
func (m *queueModel) reap(now int64) {
	for _, mm := range m.msgs {
		if mm.state == stateInflight && mm.deadline <= now {
			m.fail(mm)
		}
	}
}

// claim is DequeueBatch by consumer: settle, reap, then the n ready
// messages by priority descending and id ascending.
func (m *queueModel) claim(consumer string, n int, now, deadline int64) []int64 {
	m.settle()
	m.reap(now)
	var ready []int64
	for id, mm := range m.msgs {
		if mm.state == stateReady {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool {
		a, b := m.msgs[ready[i]], m.msgs[ready[j]]
		if a.pri != b.pri {
			return a.pri > b.pri
		}
		return ready[i] < ready[j]
	})
	ready = ready[:min(n, len(ready))]
	for _, id := range ready {
		mm := m.msgs[id]
		mm.state, mm.attempt, mm.deadline, mm.holder = stateInflight, mm.attempts+1, deadline, consumer
	}
	return ready
}

// live reports whether a receipt is the message's current delivery: its
// holder's, at its attempt.
func (m *queueModel) live(r Receipt) (*modelMsg, bool) {
	mm := m.msgs[r.ID]
	return mm, mm != nil && mm.state == stateInflight && int64(mm.attempt) == r.attempt && mm.holder == r.Consumer
}

// restart is a reopen: what is in flight is ready again with its
// persisted attempts, and so is what was acknowledged but not settled
// unless the queue was closed, which settles.
func (m *queueModel) restart(closed bool) {
	if closed {
		m.settle()
	}
	for _, mm := range m.msgs {
		if mm.state == stateInflight || mm.state == modelAcked {
			mm.state = stateReady
		}
	}
}

// TestQueueMatchesModel runs seeded scripts of enqueues, claims by two
// consumers, ACKs, NACKs, Releases, releases of all one consumer
// holds, Reaps, clock jumps past the visibility timeout and restarts —
// a clean Close and a crash — against a durable queue and the model
// above. Every claim must hand out the model's messages with its
// attempt numbers, every settlement must succeed or go stale as the
// model says — a receipt kept past its settlement comes back, so one
// whose message another consumer now holds at the same attempt is
// tried too — and Stats, each consumer's held count and the dead
// letters must agree after every step.
func TestQueueMatchesModel(t *testing.T) {
	const vt = 10 * time.Second
	cfg := Config{VisibilityTimeout: vt, MaxAttempts: 3}
	consumers := []string{"c", "d"}
	var redelivered, dead, crashBack, foreign int // the scripts must reach each
	for seed := int64(1); seed <= 20; seed++ {
		now := fakeClock(t)
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		var db *storage.DB
		var mgr *Manager
		var q *Queue
		open := func(create bool) {
			t.Helper()
			var err error
			if db, err = storage.Open(storage.Options{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			mgr = NewManager(db)
			attach := mgr.Open
			if create {
				attach = mgr.Create
			}
			if q, err = attach("m", cfg); err != nil {
				t.Fatal(err)
			}
		}
		open(true)
		model := &queueModel{msgs: map[int64]*modelMsg{}, maxAttempts: cfg.MaxAttempts}
		var held []Receipt
		for step := 0; step < 250; step++ {
			switch op := rng.Intn(21); {
			case op < 4: // enqueue
				pri := rng.Intn(3)
				id, err := q.Enqueue(ev(step), EnqueueOptions{Priority: pri})
				if err != nil {
					t.Fatal(err)
				}
				model.msgs[id] = &modelMsg{pri: pri, state: stateReady}
			case op < 8: // claim
				n := 1 + rng.Intn(5)
				consumer := consumers[rng.Intn(2)]
				nowNS := now.UnixNano()
				want := model.claim(consumer, n, nowNS, nowNS+vt.Nanoseconds())
				got, err := q.DequeueBatch(consumer, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: claim of %d gave %d messages, the model %d", seed, step, n, len(got), len(want))
				}
				for i, m := range got {
					if mm := model.msgs[want[i]]; m.Receipt.ID != want[i] || m.Attempt != mm.attempt {
						t.Fatalf("seed %d step %d: claim %d is message %d attempt %d, the model's is %d attempt %d",
							seed, step, i, m.Receipt.ID, m.Attempt, want[i], mm.attempt)
					}
					if m.Attempt > 1 {
						redelivered++
					}
					held = append(held, m.Receipt)
				}
			case op < 14: // settle one delivery
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				r := held[i]
				if rng.Intn(4) > 0 { // else kept, to come back stale
					held = append(held[:i], held[i+1:]...)
				}
				mm, live := model.live(r)
				if !live && mm != nil && mm.state == stateInflight && int64(mm.attempt) == r.attempt {
					foreign++
				}
				var err error
				switch rng.Intn(4) {
				case 0, 1:
					err = q.Ack(r)
					if live {
						mm.state = modelAcked
						if model.count(stateInflight) == 0 {
							model.settle()
						}
					}
				case 2:
					err = q.Nack(r, 0)
					if live {
						model.fail(mm)
					}
				case 3:
					err = q.Release(r)
					if live {
						mm.state = stateReady
					}
				}
				if live != (err == nil) || (!live && !errors.Is(err, ErrStaleReceipt)) {
					t.Fatalf("seed %d step %d: settling %s's message %d attempt %d gave %v; the model says live=%v",
						seed, step, r.Consumer, r.ID, r.attempt, err, live)
				}
			case op < 16: // the clock passes the visibility timeout, or most of it
				*now = now.Add(time.Duration(rng.Int63n(int64(vt) * 3 / 2)))
			case op < 17:
				q.Reap()
				model.settle()
				model.reap(now.UnixNano())
			case op < 18: // release all one consumer holds
				consumer := consumers[rng.Intn(2)]
				q.ReleaseHeld(consumer)
				for _, mm := range model.msgs {
					if mm.state == stateInflight && mm.holder == consumer {
						mm.state = stateReady
					}
				}
			default: // restart: a clean Close, or a crash that skips it
				closed := rng.Intn(2) == 0
				if closed {
					mgr.Close()
				} else {
					crashBack += model.count(modelAcked)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				model.restart(closed)
				held = nil
				open(false)
			}
			st := q.Stats()
			if want := (Stats{Ready: model.count(stateReady), Inflight: model.count(stateInflight), Dead: model.count(stateDead)}); st != want {
				t.Fatalf("seed %d step %d: Stats = %+v, the model's %+v", seed, step, st, want)
			}
			for _, c := range consumers {
				if got, want := q.Held(c), model.held(c); got != want {
					t.Fatalf("seed %d step %d: %s holds %d, in the model %d", seed, step, c, got, want)
				}
			}
		}
		ids, _, err := q.DeadLetters()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != model.count(stateDead) {
			t.Fatalf("seed %d: %d dead letters, the model has %d", seed, len(ids), model.count(stateDead))
		}
		for _, id := range ids {
			if model.msgs[id].state != stateDead {
				t.Fatalf("seed %d: message %d is a dead letter, in the model it is %s", seed, id, model.msgs[id].state)
			}
		}
		dead += len(ids)
		mgr.Close()
		db.Close()
	}
	if redelivered == 0 || dead == 0 || crashBack == 0 || foreign == 0 {
		t.Fatalf("the scripts produced %d redeliveries, %d dead letters, %d acknowledged messages a crash gave back and %d receipts whose message another consumer held at their attempt; each must occur",
			redelivered, dead, crashBack, foreign)
	}
}

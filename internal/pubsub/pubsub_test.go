package pubsub

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/expr"
	"eventdb/internal/queue"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func trade(sym string, price float64) *event.Event {
	ev := event.New("trade", map[string]any{"sym": sym, "price": price})
	ev.Source = "feed"
	return ev
}

func TestSubscribePublish(t *testing.T) {
	b := NewBroker()
	var got []Delivery
	if err := b.Subscribe("s1", "alice", "sym = 'ACME' AND price > 100", func(d Delivery) {
		got = append(got, d)
	}); err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(trade("ACME", 101))
	if err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	n, _ = b.Publish(trade("ACME", 99))
	if n != 0 {
		t.Errorf("non-matching publish delivered %d", n)
	}
	n, _ = b.Publish(trade("OTHER", 500))
	if n != 0 {
		t.Errorf("wrong symbol delivered %d", n)
	}
	if len(got) != 1 || got[0].Subscriber != "alice" || got[0].SubID != "s1" {
		t.Errorf("deliveries = %+v", got)
	}
}

func TestEnvelopeFilter(t *testing.T) {
	b := NewBroker()
	var count int
	b.Subscribe("s", "x", "$type = 'alert' AND $source = 'probe'", func(Delivery) { count++ })
	ev := event.New("alert", nil)
	ev.Source = "probe"
	b.Publish(ev)
	ev2 := event.New("alert", nil)
	ev2.Source = "other"
	b.Publish(ev2)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestEmptyFilterMatchesAll(t *testing.T) {
	b := NewBroker()
	var count int
	b.Subscribe("all", "x", "", func(Delivery) { count++ })
	b.Publish(trade("A", 1))
	b.Publish(event.New("other", nil))
	if count != 2 {
		t.Errorf("count = %d", count)
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBroker()
	var count int
	b.Subscribe("s", "x", "", func(Delivery) { count++ })
	b.Publish(trade("A", 1))
	if err := b.Unsubscribe("s"); err != nil {
		t.Fatal(err)
	}
	b.Publish(trade("A", 1))
	if count != 1 {
		t.Errorf("count = %d", count)
	}
	if err := b.Unsubscribe("s"); err == nil {
		t.Error("double unsubscribe accepted")
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestSubscriptionErrors(t *testing.T) {
	b := NewBroker()
	if err := b.Subscribe("", "x", "", func(Delivery) {}); err == nil {
		t.Error("empty id accepted")
	}
	if err := b.Subscribe("s", "x", "((", func(Delivery) {}); err == nil {
		t.Error("bad filter accepted")
	}
	if err := b.Subscribe("s", "x", "", nil); err == nil {
		t.Error("nil handler accepted")
	}
	b.Subscribe("s", "x", "", func(Delivery) {})
	if err := b.Subscribe("s", "y", "", func(Delivery) {}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := b.SubscribeQueue("q", "x", "", nil, 0); err == nil {
		t.Error("nil queue accepted")
	}
}

func TestQueueDelivery(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	defer db.Close()
	qm := queue.NewManager(db)
	defer qm.Close()
	q, _ := qm.Create("alerts", queue.Config{})

	b := NewBroker()
	if err := b.SubscribeQueue("s", "ops", "price > 100", q, 3); err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(trade("ACME", 150))
	if err != nil || n != 1 {
		t.Fatalf("publish: %d %v", n, err)
	}
	msg, ok, err := q.Dequeue("ops")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if msg.Priority != 3 {
		t.Errorf("priority = %d", msg.Priority)
	}
	if v, _ := msg.Event.Get("sym"); !val.Equal(v, val.String("ACME")) {
		t.Errorf("payload = %v", v)
	}
}

func TestMatchOnly(t *testing.T) {
	b := NewBroker()
	b.Subscribe("s1", "x", "price > 10", func(Delivery) { t.Fatal("must not deliver") })
	b.Subscribe("s2", "x", "price > 100", func(Delivery) { t.Fatal("must not deliver") })
	ids, err := b.MatchOnly(trade("A", 50))
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Errorf("MatchOnly = %v, %v", ids, err)
	}
}

// naiveMatchOnly is the evaluate-every-subscription baseline the
// paper's indexing claim is measured against, and the oracle MatchOnly
// is held to: it compiles each subscription's filter afresh and asks
// it, going nowhere near the broker's rules engine.
func naiveMatchOnly(b *Broker, ev *event.Event) ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var ids []string
	for id, s := range b.subs {
		cond := s.filter
		if cond == "" {
			cond = "true"
		}
		pred, err := expr.Compile(cond)
		if err != nil {
			return nil, err
		}
		ok, err := pred.Match(ev)
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func TestIndexedAndNaiveAgree(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 100; i++ {
		filter := fmt.Sprintf("sym = 'S%d'", i%10)
		if i%3 == 0 {
			filter = fmt.Sprintf("price >= %d AND price < %d", i, i+10)
		}
		b.Subscribe(fmt.Sprintf("s%d", i), "x", filter, func(Delivery) {})
	}
	for p := 0; p < 120; p += 7 {
		ev := trade(fmt.Sprintf("S%d", p%10), float64(p))
		got, err1 := b.MatchOnly(ev)
		want, err2 := naiveMatchOnly(b, ev)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: indexed %v vs naive %v", p, got, want)
		}
	}
}

// BenchmarkE3MatchNaive is the naive arm of the root package's
// BenchmarkE3Match (same subscriptions, same event): what a match costs
// when every subscription's predicate is evaluated. The filters are
// compiled once, outside the loop, as a naive broker would hold them.
func BenchmarkE3MatchNaive(b *testing.B) {
	for _, n := range []int{100, 10000} { // 100k takes too long per op for CI
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			preds := make([]*expr.Predicate, n)
			for i := range preds {
				preds[i] = expr.MustCompile(fmt.Sprintf("sym = 'S%d' AND price > %d", i%1000, i%500))
			}
			ev := event.New("trade", map[string]any{"sym": "S7", "price": 600})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				for _, p := range preds {
					ok, err := p.Match(ev)
					if err != nil {
						b.Fatal(err)
					}
					if ok {
						matched++
					}
				}
				if matched == 0 {
					b.Fatal("no subscription matched")
				}
			}
		})
	}
}

func TestStorePersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	qm := queue.NewManager(db)
	q, _ := qm.Create("alerts", queue.Config{})
	b := NewBroker()
	if err := b.AttachStore(db, "subs", qm, queue.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	var count int
	b.Subscribe("cb", "bob", "price > 5", func(Delivery) { count++ })
	b.SubscribeQueue("qd", "ops", "price > 100", q, 0)
	db.Close()

	// Restart: subscriptions reload from the table.
	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	qm2 := queue.NewManager(db2)
	defer qm2.Close()
	var count2 int
	b2 := NewBroker()
	handlers := map[string]Handler{"bob": func(Delivery) { count2++ }}
	if err := b2.AttachStore(db2, "subs", qm2, queue.Config{}, handlers); err != nil {
		t.Fatal(err)
	}
	if b2.Len() != 2 {
		t.Fatalf("reloaded subs = %d", b2.Len())
	}
	n, err := b2.Publish(trade("A", 150))
	if err != nil || n != 2 {
		t.Fatalf("publish after reload: n=%d err=%v", n, err)
	}
	if count2 != 1 {
		t.Errorf("callback deliveries = %d", count2)
	}
	q2, _ := qm2.Get("alerts")
	if _, ok, _ := q2.Dequeue("ops"); !ok {
		t.Error("queue delivery lost after reload")
	}
	// Unsubscribe removes the row.
	if err := b2.Unsubscribe("cb"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db2.Table("subs")
	if tbl.Len() != 1 {
		t.Errorf("rows after unsubscribe = %d", tbl.Len())
	}
}

func TestPublishTypeErrorPropagates(t *testing.T) {
	b := NewBroker()
	b.Subscribe("bad", "x", "lower(price) = 'a'", func(Delivery) {})
	if _, err := b.Publish(trade("A", 1)); err == nil {
		t.Error("type error not propagated")
	}
}

func TestPublisherMatchesPublish(t *testing.T) {
	b := NewBroker()
	var got []string
	b.Subscribe("cheap", "x", "price < 100", func(d Delivery) {
		got = append(got, d.Event.String())
	})
	b.Subscribe("acme", "x", "sym = 'ACME'", func(d Delivery) {
		got = append(got, d.Event.String())
	})

	// A Publisher matches identically to Broker.Publish.
	p := b.NewPublisher()
	for _, ev := range []*event.Event{trade("ACME", 50), trade("Z", 999)} {
		want, err := b.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("publisher delivered %d, Publish delivered %d", n, want)
		}
	}
}

func TestFilterOf(t *testing.T) {
	b := NewBroker()
	if _, ok := b.FilterOf("nope"); ok {
		t.Error("FilterOf found a missing subscription")
	}
	b.Subscribe("s1", "x", "price > 5", func(Delivery) {})
	if f, ok := b.FilterOf("s1"); !ok || f != "price > 5" {
		t.Errorf("FilterOf = %q, %v", f, ok)
	}
	b.Unsubscribe("s1")
	if _, ok := b.FilterOf("s1"); ok {
		t.Error("FilterOf found an unsubscribed subscription")
	}
}

func TestPersistOnlyQueueSubs(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	qm := queue.NewManager(db)
	q, _ := qm.Create("alerts", queue.Config{})
	b := NewBroker()
	b.PersistOnlyQueueSubs(true)
	if err := b.AttachStore(db, "subs", qm, queue.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	// A connection-bound callback subscription must not be persisted; a
	// durable queue binding must.
	b.Subscribe("wire.1.hot", "conn1", "price > 5", func(Delivery) {})
	b.SubscribeQueue("qsub.orders", "wire", "price > 100", q, 0)
	// Unsubscribing the unpersisted one must not error on the store.
	if err := b.Unsubscribe("wire.1.hot"); err != nil {
		t.Fatal(err)
	}
	qm.Close()
	db.Close()

	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	qm2 := queue.NewManager(db2)
	defer qm2.Close()
	b2 := NewBroker()
	if err := b2.AttachStore(db2, "subs", qm2, queue.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if b2.Len() != 1 {
		t.Fatalf("reloaded %d subscriptions, want only the queue binding", b2.Len())
	}
	if f, ok := b2.FilterOf("qsub.orders"); !ok || f != "price > 100" {
		t.Errorf("reloaded binding filter = %q, %v", f, ok)
	}
}

func TestRebindAtomicFilterReplace(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	qm := queue.NewManager(db)
	q, _ := qm.Create("alerts", queue.Config{})
	b := NewBroker()
	if err := b.AttachStore(db, "subs", qm, queue.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeQueue("qd", "ops", "price > 100", q, 0); err != nil {
		t.Fatal(err)
	}
	// A broken filter must leave the existing binding fully intact.
	if err := b.Rebind("qd", "price >>> nope"); err == nil {
		t.Fatal("rebind with a broken filter succeeded")
	}
	if f, _ := b.FilterOf("qd"); f != "price > 100" {
		t.Fatalf("filter after failed rebind = %q", f)
	}
	if n, err := b.Publish(trade("A", 150)); err != nil || n != 1 {
		t.Fatalf("publish after failed rebind: n=%d err=%v", n, err)
	}
	// A valid rebind switches matching and persists.
	if err := b.Rebind("qd", "price > 1000"); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.Publish(trade("A", 150)); n != 0 {
		t.Fatalf("old filter still matching after rebind: n=%d", n)
	}
	if n, _ := b.Publish(trade("A", 1500)); n != 1 {
		t.Fatal("new filter not matching after rebind")
	}
	if err := b.Rebind("nope", "x > 1"); err == nil {
		t.Fatal("rebind of a missing subscription succeeded")
	}
	qm.Close()
	db.Close()

	// The persisted row carries the new filter across restart.
	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	qm2 := queue.NewManager(db2)
	defer qm2.Close()
	b2 := NewBroker()
	if err := b2.AttachStore(db2, "subs", qm2, queue.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if f, ok := b2.FilterOf("qd"); !ok || f != "price > 1000" {
		t.Fatalf("reloaded filter = %q, %v; want the rebound filter", f, ok)
	}
}

// --- fan-out group commit and best-effort delivery ----------------------

// TestDeliverGroupCommitSingleTransaction pins that one event fanning
// out to several queue-backed subscriptions stages under a single
// commit (one WAL append), not one per queue.
func TestDeliverGroupCommitSingleTransaction(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	qm := queue.NewManager(db)
	b := NewBroker()
	const queues = 5
	for i := 0; i < queues; i++ {
		q, err := qm.Create(fmt.Sprintf("g%d", i), queue.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SubscribeQueue(fmt.Sprintf("qs%d", i), "x", "", q, 0); err != nil {
			t.Fatal(err)
		}
	}
	seq0 := db.Seq()
	n, err := b.Publish(trade("ACME", 101))
	if err != nil {
		t.Fatal(err)
	}
	if n != queues {
		t.Fatalf("delivered %d, want %d", n, queues)
	}
	if got := db.Seq() - seq0; got != 1 {
		t.Errorf("fan-out to %d queues took %d commits, want 1 (group commit)", queues, got)
	}
	for i := 0; i < queues; i++ {
		q, _ := qm.Get(fmt.Sprintf("g%d", i))
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("queue %d: dequeue ok=%v err=%v", i, ok, err)
		}
		if msg.Event.Type != "trade" {
			t.Errorf("queue %d: wrong event %v", i, msg.Event)
		}
	}
}

// TestDeliverBestEffortOnQueueFailure pins the partial-failure
// contract: when one queue rejects the staging (here a BEFORE hook
// vetoing its table — the stand-in for a full or broken queue), the
// callback subscriptions still fire, the healthy sibling queues still
// receive the event, and the failure comes back as one aggregated
// error naming the broken subscription.
func TestDeliverBestEffortOnQueueFailure(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	qm := queue.NewManager(db)
	b := NewBroker()

	good, err := qm.Create("good", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := qm.Create("bad", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a full queue: every insert into its backing table is
	// vetoed.
	remove := db.OnBefore(queue.TableName("bad"), func(c *storage.Change) error {
		return fmt.Errorf("queue full")
	})
	defer remove()

	calls := 0
	if err := b.Subscribe("cb", "x", "", func(Delivery) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeQueue("qgood", "x", "", good, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeQueue("qbad", "x", "", bad, 0); err != nil {
		t.Fatal(err)
	}

	n, err := b.Publish(trade("ACME", 101))
	if err == nil {
		t.Fatal("expected an aggregated error for the vetoed queue")
	}
	if got := err.Error(); !strings.Contains(got, "qbad") {
		t.Errorf("error does not name the failed subscription: %v", got)
	}
	if strings.Contains(err.Error(), "qgood") {
		t.Errorf("error blames the healthy subscription: %v", err)
	}
	if n != 2 {
		t.Errorf("delivered %d, want 2 (callback + healthy queue)", n)
	}
	if calls != 1 {
		t.Errorf("callback fired %d times, want 1", calls)
	}
	if _, ok, _ := good.Dequeue("c"); !ok {
		t.Error("healthy queue lost its delivery to the sibling failure")
	}
	if st := bad.Stats(); st.Ready != 0 || st.Inflight != 0 {
		t.Errorf("vetoed queue has contents: %+v", st)
	}
}

// TestBatchStagingSharesCommits: between BeginBatch and EndBatch the
// queue deliveries of successive events land in shared transactions —
// one for a PUBB-sized batch, at most maxStaged stagings each for a
// longer one — in publish order, and are counted when they land.
func TestBatchStagingSharesCommits(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	qm := queue.NewManager(db)
	b := NewBroker()
	qa, _ := qm.Create("a", queue.Config{})
	qb, _ := qm.Create("b", queue.Config{})
	if err := b.SubscribeQueue("sa", "x", "", qa, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SubscribeQueue("sb", "x", "price > 1000", qb, 0); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := b.Subscribe("cb", "x", "", func(Delivery) { calls++ }); err != nil {
		t.Fatal(err)
	}
	p := b.NewPublisher()

	run := func(events int, wantCommits uint64) {
		t.Helper()
		seq0, calls0 := db.Seq(), calls
		p.BeginBatch()
		inline := 0
		for i := 0; i < events; i++ {
			n, err := p.Publish(trade("ACME", float64(2000+i)))
			if err != nil {
				t.Fatal(err)
			}
			inline += n
		}
		landed, err := p.EndBatch()
		if err != nil {
			t.Fatal(err)
		}
		if calls-calls0 != events {
			t.Fatalf("callback ran %d times for %d events", calls-calls0, events)
		}
		if inline+landed != 3*events {
			t.Fatalf("%d events: counted %d deliveries (%d at EndBatch), want %d", events, inline+landed, landed, 3*events)
		}
		if got := db.Seq() - seq0; got != wantCommits {
			t.Fatalf("%d events into two queues took %d commits, want %d", events, got, wantCommits)
		}
		for _, q := range []*queue.Queue{qa, qb} {
			for i := 0; i < events; i++ {
				msg, ok, err := q.Dequeue("c")
				if err != nil || !ok {
					t.Fatalf("queue %s: message %d of %d missing (%v)", q.Name(), i, events, err)
				}
				if price, _ := msg.Event.Get("price"); !val.Equal(price, val.Float(float64(2000+i))) {
					t.Fatalf("queue %s: message %d carries price %v", q.Name(), i, price)
				}
				q.Ack(msg.Receipt)
			}
			if _, ok, _ := q.Dequeue("c"); ok {
				t.Fatalf("queue %s holds more than was published", q.Name())
			}
		}
	}
	run(64, 1)  // a PUBB: one staging commit
	run(300, 3) // 600 stagings: 256 + 256 + 88
	// Outside a batch a publish commits by itself again.
	seq0 := db.Seq()
	if n, err := p.Publish(trade("ACME", 5000)); err != nil || n != 3 {
		t.Fatalf("publish after the batch = %d, %v", n, err)
	}
	if got := db.Seq() - seq0; got != 1 {
		t.Fatalf("a publish outside a batch took %d commits", got)
	}
}

// TestBatchStagingBestEffortOnQueueFailure: a vetoed queue costs a
// batch its shared commit, not its healthy deliveries — every event
// still reaches the healthy queue and the callbacks, nothing reaches
// the vetoed one, and the error is the one publishing the first event
// by itself reports.
func TestBatchStagingBestEffortOnQueueFailure(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	qm := queue.NewManager(db)
	b := NewBroker()
	good, _ := qm.Create("good", queue.Config{})
	bad, _ := qm.Create("bad", queue.Config{})
	remove := db.OnBefore(queue.TableName("bad"), func(c *storage.Change) error {
		return fmt.Errorf("queue full")
	})
	defer remove()
	calls := 0
	b.Subscribe("cb", "x", "", func(Delivery) { calls++ })
	b.SubscribeQueue("qgood", "x", "", good, 0)
	b.SubscribeQueue("qbad", "x", "", bad, 0)
	p := b.NewPublisher()

	_, alone := p.Publish(trade("ACME", 1))
	if alone == nil {
		t.Fatal("expected an error for the vetoed queue")
	}
	const events = 20
	p.BeginBatch()
	delivered := 0
	for i := 0; i < events; i++ {
		n, err := p.Publish(trade("ACME", float64(100+i)))
		if err != nil {
			t.Fatalf("event %d failed inside the batch: %v", i, err)
		}
		delivered += n
	}
	landed, err := p.EndBatch()
	if err == nil || err.Error() != alone.Error() {
		t.Fatalf("batch error = %v, want what one event reports: %v", err, alone)
	}
	if delivered+landed != 2*events || calls != 1+events {
		t.Fatalf("delivered %d (+%d at EndBatch), callbacks %d; want %d deliveries, %d callbacks", delivered, landed, calls, 2*events, 1+events)
	}
	if st := good.Stats(); st.Ready != 1+events {
		t.Fatalf("healthy queue holds %+v, want %d ready", st, 1+events)
	}
	if st := bad.Stats(); st.Ready != 0 || st.Inflight != 0 {
		t.Fatalf("vetoed queue has contents: %+v", st)
	}
}

// TestAllocsPublishSteadyState is the acceptance guard for the
// allocation-free hot path: steady-state match+publish of one event to
// callback subscriptions through a warm Publisher must stay within 2
// allocations per event (it is 0 today).
func TestAllocsPublishSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	b := NewBroker()
	for i := 0; i < 500; i++ {
		filter := fmt.Sprintf("sym = 'S%d' AND price > %d", i%100, i%50)
		if err := b.Subscribe(fmt.Sprintf("s%d", i), "x", filter, func(Delivery) {}); err != nil {
			t.Fatal(err)
		}
	}
	p := b.NewPublisher()
	ev := trade("S7", 600)
	for i := 0; i < 3; i++ {
		if _, err := p.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		n, err := p.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("event stopped matching")
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state publish allocates %v per event, want <= 2", allocs)
	}
}

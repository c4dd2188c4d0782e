package pubsub

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// it, going nowhere near the rules engine's index.
func naiveMatchOnly(b *Broker, ev *event.Event) ([]string, error) {
	var ids []string
	for _, id := range b.engine.Rules() {
		filter, _ := b.FilterOf(id)
		pred, err := Compile(filter)
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
				p, err := expr.Compile(fmt.Sprintf("sym = 'S%d' AND price > %d", i%1000, i%500))
				if err != nil {
					b.Fatal(err)
				}
				preds[i] = p
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

func TestRebindAtomicFilterReplace(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	q, _ := queue.NewManager(db).Create("alerts", queue.Config{})
	b := NewBroker()
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
	// A valid rebind switches matching.
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
	// And fanout's sixteen match-all subscriptions.
	for i := 0; i < 16; i++ {
		if err := b.Subscribe(fmt.Sprintf("all%d", i), "x", "", func(Delivery) {}); err != nil {
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
		if n <= 16 {
			t.Fatal("event stopped matching")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state publish allocates %v per event, want 0", allocs)
	}
}

// --- the subscription a matched rule carries ----------------------------

// TestUnsubscribedReceivesNothing: once Unsubscribe returns, nothing
// delivers to the subscription — not a later Publish, not a Publisher
// whose scratch held it, and not a match taken before the Unsubscribe,
// which reaches neither it nor a new subscription under its id.
func TestUnsubscribedReceivesNothing(t *testing.T) {
	b := NewBroker()
	counts := map[string]int{}
	count := func(key string) Handler { return func(Delivery) { counts[key]++ } }
	for _, id := range []string{"gone", "stays"} {
		if err := b.Subscribe(id, "x", "", count(id)); err != nil {
			t.Fatal(err)
		}
	}
	p := b.NewPublisher()
	ev := trade("A", 1)
	p.Publish(ev)
	b.Publish(ev)
	stale, err := b.engine.Match(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("gone"); err != nil {
		t.Fatal(err)
	}
	p.Publish(ev)
	b.Publish(ev)
	if n, _ := b.deliver(stale, ev, new(deliverScratch)); n != 1 {
		t.Errorf("a match taken before Unsubscribe delivered %d times, want 1 (to stays)", n)
	}
	if err := b.Subscribe("gone", "x", "", count("again")); err != nil {
		t.Fatal(err)
	}
	b.deliver(stale, ev, &p.sc)
	if counts["gone"] != 2 || counts["again"] != 0 {
		t.Errorf("deliveries after Unsubscribe: old %d (want 2, from before), new %d (want 0)", counts["gone"], counts["again"])
	}
	p.Publish(ev)
	if counts["again"] != 1 || counts["stays"] != 7 {
		t.Errorf("new subscription got %d (want 1), stays %d (want 7)", counts["again"], counts["stays"])
	}
}

// TestRebindDeliversOncePerMatch: after Rebind the subscription receives
// exactly one delivery per event its new filter matches, through a
// Publisher made before the rebind as through Publish.
func TestRebindDeliversOncePerMatch(t *testing.T) {
	b := NewBroker()
	var got []string
	if err := b.Subscribe("s", "x", "price > 100", func(d Delivery) { got = append(got, d.SubID) }); err != nil {
		t.Fatal(err)
	}
	p := b.NewPublisher()
	p.Publish(trade("A", 150))
	for _, filter := range []string{"price > 10", "", "price > 10"} {
		if err := b.Rebind("s", filter); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for _, price := range []float64{5, 50, 150} {
			if _, err := p.Publish(trade("A", price)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Publish(trade("A", price)); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{"s", "s", "s", "s"} // 50 and 150, twice each
		if filter == "" {
			want = append(want, "s", "s")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("filter %q: deliveries %v, want %v", filter, got, want)
		}
	}
}

// TestDeliverRacesSubscriptionChurn: publishers through Publisher and
// Publish while subscriptions come, rebind and go — under -race this
// holds the handle and the rule's removed mark to their memory model.
func TestDeliverRacesSubscriptionChurn(t *testing.T) {
	b := NewBroker()
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := b.NewPublisher()
			for i := 0; !stop.Load(); i++ {
				ev := trade("A", float64(i%200))
				if w == 0 {
					p.Publish(ev)
				} else {
					b.Publish(ev)
				}
			}
		}(w)
	}
	var delivered atomic.Int64
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("s%d", i%7)
		if _, ok := b.FilterOf(id); !ok {
			if err := b.Subscribe(id, "x", "price > 50", func(Delivery) { delivered.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Rebind(id, fmt.Sprintf("price > %d", i%100)); err != nil {
			t.Fatal(err)
		}
		if i%3 > 0 {
			if err := b.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for i := 0; i < 7; i++ {
		b.Unsubscribe(fmt.Sprintf("s%d", i))
	}
	before := delivered.Load()
	b.Publish(trade("A", 150))
	if delivered.Load() != before || b.Len() != 0 {
		t.Errorf("a publish after every Unsubscribe delivered %d", delivered.Load()-before)
	}
}

// TestRebindNeverDropsAMatch: while one goroutine rebinds a
// subscription back and forth between two filters, every event that
// meets both is delivered exactly once — a publish never finds the
// subscription between its old filter and its new one.
func TestRebindNeverDropsAMatch(t *testing.T) {
	const events = 200000
	b := NewBroker()
	delivered := 0 // handlers run on the publishing goroutine
	if err := b.Subscribe("s", "x", "price > 10", func(Delivery) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	rebinds := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-done:
				rebinds <- n
				return
			default:
			}
			if err := b.Rebind("s", []string{"price > 20", "price > 10"}[n%2]); err != nil {
				t.Error(err)
			}
		}
	}()
	p := b.NewPublisher()
	ev := trade("A", 50)
	for i := 0; i < events; i++ {
		if _, err := p.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	n := <-rebinds
	if delivered != events {
		t.Errorf("%d of %d events delivered across %d rebinds", delivered, events, n)
	}
}

// --- one call per target ------------------------------------------------

// recTarget records each call it gets: the ids it was handed.
type recTarget struct{ calls [][]string }

func (t *recTarget) Deliver(ids []string, _ *event.Event) {
	t.calls = append(t.calls, append([]string(nil), ids...))
}

// TestDeliverGroupsByTarget: an event reaches each target once, with
// the ids of all of its subscriptions that matched in match order,
// however the targets' subscriptions interleave, and Publish still
// counts one delivery per subscription.
func TestDeliverGroupsByTarget(t *testing.T) {
	b := NewBroker()
	targets := []*recTarget{{}, {}, {}}
	for i := 0; i < 12; i++ {
		filter := ""
		if i%5 == 4 {
			filter = "price > 1000"
		}
		if err := b.SubscribeTarget(fmt.Sprintf("%c%d", 'a'+i%3, i), filter, targets[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	ev := trade("X", 5)
	order, err := b.MatchOnly(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(targets))
	for _, id := range order {
		k := id[0] - 'a'
		want[k] = append(want[k], id)
	}
	n, err := b.Publish(ev)
	if err != nil || n != len(order) || n != 10 {
		t.Fatalf("Publish = %d, %v; want %d", n, err, len(order))
	}
	for k, tg := range targets {
		if len(tg.calls) != 1 || !reflect.DeepEqual(tg.calls[0], want[k]) {
			t.Errorf("target %c got %v, want one call with %v", 'a'+k, tg.calls, want[k])
		}
	}
}

// countTarget counts its calls and the ids it was handed, and keeps
// the last one, without allocating.
type countTarget struct {
	calls, ids int
	last       string
}

func (t *countTarget) Deliver(ids []string, _ *event.Event) {
	t.calls++
	t.ids += len(ids)
	t.last = ids[len(ids)-1]
}

// TestDeliverManyTargets: 2,000 targets holding one subscription each,
// as a server with 2,000 connections holding one SUB, each get one call
// with their one id, a warm publish allocates nothing, and grouping adds
// no scan per target: publishing to them costs about what publishing to
// one target holding 2,000 subscriptions does — a linear grouping pays
// one map step per match on top, a scan of the targets seen so far
// would pay about a thousand comparisons per match.
func TestDeliverManyTargets(t *testing.T) {
	const n = 2000
	many, one := NewBroker(), NewBroker()
	targets := make([]countTarget, n)
	shared := &countTarget{}
	for i := range targets {
		if err := many.SubscribeTarget(fmt.Sprintf("c%d", i), "", &targets[i]); err != nil {
			t.Fatal(err)
		}
		if err := one.SubscribeTarget(fmt.Sprintf("c%d", i), "", shared); err != nil {
			t.Fatal(err)
		}
	}
	pm, po := many.NewPublisher(), one.NewPublisher()
	ev := trade("X", 5)
	if got, err := pm.Publish(ev); got != n || err != nil {
		t.Fatalf("Publish = %d, %v; want %d", got, err, n)
	}
	for i, tg := range targets {
		if tg.calls != 1 || tg.ids != 1 || tg.last != fmt.Sprintf("c%d", i) {
			t.Fatalf("target %d got %+v, want one call with c%d", i, tg, i)
		}
	}
	if _, err := po.Publish(ev); err != nil || shared.calls != 1 || shared.ids != n {
		t.Fatalf("one target of %d subscriptions got %+v (%v)", n, *shared, err)
	}
	toMany := func() { pm.Publish(ev) }
	toOne := func() { po.Publish(ev) }
	if !raceflag.Enabled {
		if allocs := testing.AllocsPerRun(20, toMany); allocs != 0 {
			t.Errorf("a publish to %d targets allocates %v, want 0", n, allocs)
		}
	}
	// The fastest of several rounds, so a busy host slows both sides
	// rather than one.
	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 7; r++ {
			start := time.Now()
			for i := 0; i < 20; i++ {
				f()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	tMany, tOne := fastest(toMany), fastest(toOne)
	t.Logf("20 publishes: %v to %d targets, %v to one target", tMany, n, tOne)
	if tMany > 10*tOne {
		t.Errorf("publishing to %d targets took %v, over 10 × the %v to one target of %d subscriptions", n, tMany, tOne, n)
	}
}

// unsubTarget unsubscribes ids when it is delivered to.
type unsubTarget struct {
	recTarget
	b     *Broker
	unsub []string
}

func (t *unsubTarget) Deliver(ids []string, ev *event.Event) {
	t.recTarget.Deliver(ids, ev)
	for _, id := range t.unsub {
		t.b.Unsubscribe(id)
	}
}

// TestDeliverAfterUnsubscribe: a target that unsubscribes another's
// subscriptions while the event is being delivered stops their delivery
// of that event, as Unsubscribe promises — the handles are read just
// before each target's call, not when the matches are grouped — and
// Publish counts only what was delivered.
func TestDeliverAfterUnsubscribe(t *testing.T) {
	b := NewBroker()
	a := &unsubTarget{b: b, unsub: []string{"b0", "c1"}}
	bt, ct := &recTarget{}, &recTarget{}
	for _, s := range []struct {
		id string
		t  Target
	}{{"a0", a}, {"b0", bt}, {"c0", ct}, {"c1", ct}} {
		if err := b.SubscribeTarget(s.id, "", s.t); err != nil {
			t.Fatal(err)
		}
	}
	ev := trade("X", 5)
	if order, err := b.MatchOnly(ev); err != nil || order[0] != "a0" {
		t.Fatalf("match order %v (%v): the test needs a0 first", order, err)
	}
	if n, err := b.Publish(ev); n != 2 || err != nil {
		t.Fatalf("Publish = %d, %v; want 2 (a0, c0)", n, err)
	}
	if len(bt.calls) != 0 {
		t.Errorf("unsubscribed b0 got %v", bt.calls)
	}
	if want := [][]string{{"c0"}}; !reflect.DeepEqual(ct.calls, want) {
		t.Errorf("c got %v, want %v", ct.calls, want)
	}
}

package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/journal"
	"eventdb/internal/pubsub"
	"eventdb/internal/query"
	"eventdb/internal/queue"
	"eventdb/internal/rules"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func open(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func readingsSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema("readings", []storage.Column{
		{Name: "meter", Kind: val.KindString, NotNull: true},
		{Name: "kwh", Kind: val.KindFloat, NotNull: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIngestRulesAndSubscriptions(t *testing.T) {
	e := open(t, Config{})
	var ruleFired, delivered int
	e.AddRule("hot", "temp > 30", 0, func(*event.Event, *rules.Rule) { ruleFired++ })
	e.Subscribe("s1", "ops", "temp > 30", func(pubsub.Delivery) { delivered++ })

	if err := e.Ingest(event.New("reading", map[string]any{"temp": 35})); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(event.New("reading", map[string]any{"temp": 20})); err != nil {
		t.Fatal(err)
	}
	if ruleFired != 1 || delivered != 1 {
		t.Errorf("fired=%d delivered=%d", ruleFired, delivered)
	}
	if e.Ingested() != 2 {
		t.Errorf("ingested = %d", e.Ingested())
	}
	if err := e.Ingest(nil); err == nil {
		t.Error("nil event accepted")
	}
}

func TestCaptureTableTriggerPath(t *testing.T) {
	e := open(t, Config{})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	var captured []*event.Event
	e.Subscribe("cap", "x", "$type LIKE 'db.readings.%'", func(d pubsub.Delivery) {
		captured = append(captured, d.Event)
	})
	if err := e.CaptureTable("readings"); err != nil {
		t.Fatal(err)
	}
	e.DB.Insert("readings", map[string]val.Value{
		"meter": val.String("m1"), "kwh": val.Float(5),
	})
	if len(captured) != 1 || captured[0].Type != "db.readings.insert" {
		t.Fatalf("captured = %v", captured)
	}
	if v, _ := captured[0].Get("new_kwh"); !val.Equal(v, val.Float(5)) {
		t.Errorf("new_kwh = %v", v)
	}
}

func TestJournalCapturePath(t *testing.T) {
	e := open(t, Config{Dir: t.TempDir()})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	var captured atomic.Int64
	e.Subscribe("cap", "x", "$type LIKE 'journal.readings.%'", func(pubsub.Delivery) {
		captured.Add(1)
	})
	stop, err := e.TailJournal(journal.Filter{Tables: []string{"readings"}})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	e.DB.Insert("readings", map[string]val.Value{
		"meter": val.String("m1"), "kwh": val.Float(5),
	})
	deadline := time.After(2 * time.Second)
	for captured.Load() < 1 {
		select {
		case <-deadline:
			t.Fatal("journal capture timed out")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestJournalTailSlowConsumerLosesNothing blocks the subscriber that
// evaluates journal events while 10,000 inserts commit, then releases
// it: the tail falls behind by LSN instead of dropping changes, and
// every insert arrives once, in LSN order.
func TestJournalTailSlowConsumerLosesNothing(t *testing.T) {
	e := open(t, Config{Dir: t.TempDir()})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var got atomic.Int64
	var last int64
	outOfOrder := ""
	e.Subscribe("cap", "x", "$type = 'journal.readings.insert'", func(d pubsub.Delivery) {
		<-release
		v, _ := d.Event.Get("lsn")
		lsn, _ := v.AsInt()
		if lsn <= last && outOfOrder == "" {
			outOfOrder = fmt.Sprintf("lsn %d after %d", lsn, last)
		}
		last = lsn
		got.Add(1)
	})
	stop, err := e.TailJournal(journal.Filter{Tables: []string{"readings"}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := e.DB.Insert("readings", map[string]val.Value{
			"meter": val.String("m"), "kwh": val.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatalf("tail ended with %v", err)
	}
	if got.Load() != n || outOfOrder != "" {
		t.Fatalf("captured %d of %d inserts (order: %q)", got.Load(), n, outOfOrder)
	}
}

func TestTailJournalOnVolatileEngineIsNotDurable(t *testing.T) {
	e := open(t, Config{})
	if _, err := e.TailJournal(journal.Filter{}); !errors.Is(err, journal.ErrNotDurable) {
		t.Fatalf("TailJournal on a volatile engine = %v, want journal.ErrNotDurable", err)
	}
}

func TestQueryCapturePath(t *testing.T) {
	e := open(t, Config{})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	var captured []*event.Event
	e.Subscribe("cap", "x", "$type LIKE 'query.hot.%'", func(d pubsub.Delivery) {
		captured = append(captured, d.Event)
	})
	w := e.WatchQuery("hot", query.New("readings").Where("kwh > 10").Select("meter", "kwh"), "meter")
	if _, err := w.Poll(); err != nil {
		t.Fatal(err)
	}
	e.DB.Insert("readings", map[string]val.Value{
		"meter": val.String("m1"), "kwh": val.Float(50),
	})
	n, err := w.Poll()
	if err != nil || n != 1 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	if len(captured) != 1 || captured[0].Type != "query.hot.added" {
		t.Fatalf("captured = %v", captured)
	}
}

func TestQueueSubscriptionEndToEnd(t *testing.T) {
	e := open(t, Config{})
	if _, err := e.CreateQueue("alerts", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeQueue("s", "ops", "sev >= 2", "alerts", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeQueue("s2", "ops", "", "missing", 0); err == nil {
		t.Error("subscribe to missing queue accepted")
	}
	e.Ingest(event.New("alarm", map[string]any{"sev": 3}))
	e.Ingest(event.New("alarm", map[string]any{"sev": 1}))
	q, _ := e.Queues.Get("alerts")
	msg, ok, err := q.Dequeue("ops")
	if err != nil || !ok {
		t.Fatalf("dequeue: %v %v", ok, err)
	}
	if v, _ := msg.Event.Get("sev"); !val.Equal(v, val.Int(3)) {
		t.Errorf("sev = %v", v)
	}
	if _, ok, _ := q.Dequeue("ops"); ok {
		t.Error("filtered event was enqueued")
	}
}

// TestIngestBatchStagesOnce: the queue stagings of a multi-event batch
// share one commit, a batch of one commits as it always did, and a
// batch whose shared commit one queue's BEFORE hook vetoes still gives
// the healthy queue every event and reports what a single Ingest of
// the first event reports.
func TestIngestBatchStagesOnce(t *testing.T) {
	e := open(t, Config{})
	for _, name := range []string{"good", "bad"} {
		if _, err := e.CreateQueue(name, queue.Config{}); err != nil {
			t.Fatal(err)
		}
		if err := e.SubscribeQueue("s"+name, "ops", "", name, 0); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(n int) []*event.Event {
		evs := make([]*event.Event, n)
		for i := range evs {
			evs[i] = event.New("alarm", map[string]any{"i": i})
		}
		return evs
	}
	good, _ := e.Queues.Get("good")
	bad, _ := e.Queues.Get("bad")

	seq0, delivered0 := e.DB.Seq(), e.Metrics.Counter("events.delivered").Value()
	if err := e.IngestBatch(batch(64)); err != nil {
		t.Fatal(err)
	}
	if got := e.DB.Seq() - seq0; got != 1 {
		t.Errorf("a 64-event batch into two queues took %d commits, want 1", got)
	}
	if got := e.Metrics.Counter("events.delivered").Value() - delivered0; got != 128 {
		t.Errorf("events.delivered rose by %d, want 128", got)
	}
	seq0 = e.DB.Seq()
	if n, err := e.IngestCount(event.New("alarm", nil)); err != nil || n != 2 {
		t.Fatalf("IngestCount = %d, %v; want 2 exactly", n, err)
	}
	if got := e.DB.Seq() - seq0; got != 1 {
		t.Errorf("one event took %d commits", got)
	}
	if st := bad.Stats(); st.Ready != 65 {
		t.Fatalf("second queue holds %+v, want 65 ready", st)
	}

	remove := e.DB.OnBefore(queue.TableName("bad"), func(*storage.Change) error {
		return errors.New("queue full")
	})
	defer remove()
	alone := e.Ingest(event.New("alarm", nil))
	if alone == nil {
		t.Fatal("expected an error for the vetoed queue")
	}
	err := e.IngestBatch(batch(10))
	if err == nil || err.Error() != alone.Error() {
		t.Fatalf("batch error = %v, want the single event's: %v", err, alone)
	}
	if st := good.Stats(); st.Ready != 65+1+10 {
		t.Errorf("healthy queue holds %+v, want %d ready", st, 65+1+10)
	}
	if st := bad.Stats(); st.Ready != 65 {
		t.Errorf("vetoed queue holds %+v, want the 65 from before the veto", st)
	}
}

func TestEngineDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.DB.CreateTable(readingsSchema(t))
	e.CreateQueue("alerts", queue.Config{})
	q, _ := e.Queues.Get("alerts")
	q.Enqueue(event.New("alarm", map[string]any{"sev": 9}), queue.EnqueueOptions{})
	e.DB.Insert("readings", map[string]val.Value{
		"meter": val.String("m1"), "kwh": val.Float(1),
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is safe.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl, ok := e2.DB.Table("readings")
	if !ok || tbl.Len() != 1 {
		t.Error("table lost across restart")
	}
	q2, err := e2.Queues.Open("alerts", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	msg, ok, err := q2.Dequeue("ops")
	if err != nil || !ok {
		t.Fatalf("message lost across restart: %v %v", ok, err)
	}
	if v, _ := msg.Event.Get("sev"); !val.Equal(v, val.Int(9)) {
		t.Errorf("sev = %v", v)
	}
}

func TestMetricsExposed(t *testing.T) {
	e := open(t, Config{})
	e.Ingest(event.New("x", nil))
	found := false
	for _, line := range e.Metrics.Snapshot() {
		if line == "events.in 1" {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics = %v", e.Metrics.Snapshot())
	}
}

func TestEnsureQueueIdempotentAndRecovering(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.EnsureQueue("orders", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := eng.EnsureQueue("orders", queue.Config{})
	if err != nil || q2 != q {
		t.Fatalf("second EnsureQueue: %v (same=%v)", err, q2 == q)
	}
	if _, err := q.Enqueue(event.New("o", map[string]any{"n": 1}), queue.EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	// After a restart the backing table is recovered; EnsureQueue
	// attaches instead of failing on create.
	eng2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	q3, err := eng2.EnsureQueue("orders", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if msg, ok, err := q3.Dequeue("c"); err != nil || !ok {
		t.Fatalf("recovered dequeue: %v %v", ok, err)
	} else if err := q3.Ack(msg.Receipt); err != nil {
		t.Fatal(err)
	}
}

func TestReplayQueueBackfillsFromJournal(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.EnsureQueue("orders", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SubscribeQueue("qsub.orders", "wire", "price > 100", "orders", 0); err != nil {
		t.Fatal(err)
	}
	const published = 10
	wantStaged := 0
	for i := 0; i < published; i++ {
		price := float64(i * 30)
		if price > 100 {
			wantStaged++
		}
		if err := eng.Ingest(event.New("trade", map[string]any{"sym": "A", "price": price})); err != nil {
			t.Fatal(err)
		}
	}
	// Consume and ack everything: the queue table is empty, but the
	// journal still remembers every staged message.
	q, _ := eng.Queues.Get("orders")
	for {
		msg, ok, err := q.Dequeue("c")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := q.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}

	var replayed []*event.Event
	var lastLSN uint64
	next, n, err := eng.ReplayQueue("orders", 0, func(ev *event.Event, lsn uint64, msgID int64) error {
		if lsn < lastLSN {
			t.Errorf("replay out of order: lsn %d after %d", lsn, lastLSN)
		}
		lastLSN = lsn
		if msgID == 0 {
			t.Error("replay with msgID 0")
		}
		replayed = append(replayed, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantStaged || len(replayed) != wantStaged {
		t.Fatalf("replayed %d (%d events), want %d", n, len(replayed), wantStaged)
	}
	for _, ev := range replayed {
		v, _ := ev.Get("price")
		f, _ := v.AsFloat()
		if f <= 100 {
			t.Errorf("replayed event with price %v never matched the binding", f)
		}
		if ev.Type != "trade" {
			t.Errorf("replayed type = %q, want the original event back", ev.Type)
		}
	}
	if next <= lastLSN {
		t.Errorf("next LSN %d not past last replayed %d", next, lastLSN)
	}
	// Resuming from next replays nothing new.
	_, n2, err := eng.ReplayQueue("orders", next, func(*event.Event, uint64, int64) error { return nil })
	if err != nil || n2 != 0 {
		t.Errorf("resume replayed %d, err %v", n2, err)
	}
}

func TestReplayQueueNotDurable(t *testing.T) {
	eng := open(t, Config{})
	if _, err := eng.EnsureQueue("q", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := eng.ReplayQueue("q", 0, func(*event.Event, uint64, int64) error { return nil })
	if err == nil {
		t.Fatal("replay on a volatile engine succeeded")
	}
	if !errors.Is(err, journal.ErrNotDurable) {
		t.Errorf("err = %v, want ErrNotDurable", err)
	}
}

// TestRestartLeavesDeadHistoryOnDisk: reopening an engine after
// publish/ack churn does not bring the acknowledged history back into
// memory. Before the first commit of the new process the segments
// reloaded from their files have been released again — resident bytes
// are those of the few messages still queued — while the history itself
// (sealed rows, REPLAY) is whole.
func TestRestartLeavesDeadHistoryOnDisk(t *testing.T) {
	const sealRows, msgs, left = 64, 20 * 64, 10
	dir := t.TempDir()
	// The Compact calls below cut every segment, while its messages are
	// queued: the background sealer never fires, and left to cut the
	// ranges after the acks it would find no row to put in a file.
	cfg := Config{Dir: dir, ColumnarSealRows: 2 * msgs, ColumnarSealInterval: time.Hour}
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.EnsureQueue("orders", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if _, err := q.Enqueue(event.New("order", map[string]any{"i": i, "note": "a payload of some size to make rows cost bytes"}), queue.EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
		if i < left {
			continue
		}
		if i%sealRows == 0 {
			if _, err := eng.Compact(queue.TableName("orders")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < msgs; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("dequeue %d: %v %v", i, ok, err)
		}
		if i < left {
			// A released message is the next one delivered, so the
			// last left messages stay queued: one segment stays.
			if err := q.Release(msg.Receipt); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := q.Ack(msg.Receipt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Compact(""); err != nil {
		t.Fatal(err)
	}
	find := func(e *Engine) (s struct{ Segments, Resident, Sealed, ResidentRows, Bytes int }) {
		for _, ts := range e.SegmentStats() {
			if ts.Table == queue.TableName("orders") {
				s.Segments, s.Resident, s.Sealed, s.Bytes = ts.Segments, ts.ResidentSegments, ts.SealedRows, ts.MemBytes
				s.ResidentRows = ts.SealedRows - ts.ReleasedRows
			}
		}
		return s
	}
	// A resident segment keeps fewer than four rows per live one (the
	// sparse rule: the left messages' segment goes back to the table,
	// which serves them hot), and a message here costs well under 400
	// bytes.
	bounded := func(s struct{ Segments, Resident, Sealed, ResidentRows, Bytes int }) bool {
		return s.Sealed == msgs && s.Resident <= 1 && s.ResidentRows < 4*left && s.Bytes <= 400*s.ResidentRows
	}
	before := find(eng)
	if !bounded(before) || before.Segments < msgs/sealRows {
		t.Fatalf("before the restart: %+v", before)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng = open(t, cfg)
	after := find(eng) // before any commit of the new process
	if !bounded(after) || after.Segments != before.Segments {
		t.Errorf("after the restart: %+v, before it: %+v", after, before)
	}
	if err := eng.History.Err(); err != nil {
		t.Error(err)
	}
	_, n, err := eng.ReplayQueue("orders", 0, func(*event.Event, uint64, int64) error { return nil })
	if err != nil || n != msgs {
		t.Errorf("REPLAY after the restart: %d messages, err %v, want %d", n, err, msgs)
	}
}

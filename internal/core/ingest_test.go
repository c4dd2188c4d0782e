package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/pubsub"
	"eventdb/internal/rules"
	"eventdb/internal/val"
)

func mkEvent(typ string, seq int) *event.Event {
	return event.New(typ, map[string]any{"seq": seq})
}

func TestIngestBatchSync(t *testing.T) {
	e := open(t, Config{})
	var fired, delivered int
	e.AddRule("hot", "seq >= 5", 0, func(*event.Event, *rules.Rule) { fired++ })
	e.Subscribe("s", "ops", "seq >= 5", func(pubsub.Delivery) { delivered++ })

	batch := make([]*event.Event, 10)
	for i := range batch {
		batch[i] = mkEvent("reading", i)
	}
	if err := e.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if fired != 5 || delivered != 5 {
		t.Errorf("fired=%d delivered=%d, want 5/5", fired, delivered)
	}
	if e.Ingested() != 10 {
		t.Errorf("ingested = %d", e.Ingested())
	}
	if err := e.IngestBatch([]*event.Event{nil}); err == nil {
		t.Error("nil event accepted")
	}
}

// TestConcurrentAsyncIngestExactDelivery fires Ingest and IngestBatch
// from many goroutines at once and asserts every event is delivered
// exactly once, before the call that admitted it returns.
func TestConcurrentAsyncIngestExactDelivery(t *testing.T) {
	e := open(t, Config{})
	var mu sync.Mutex
	seen := map[string]int{} // "<type>/<seq>" → deliveries
	if err := e.Subscribe("all", "ops", "", func(d pubsub.Delivery) {
		seq, _ := d.Event.Get("seq")
		mu.Lock()
		seen[d.Event.Type+"/"+seq.String()]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	delivered := func(typ string, seq int) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[fmt.Sprintf("%s/%d", typ, seq)]
	}

	const goroutines = 16
	const perG = 500 // half via Ingest, half via IngestBatch
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			typ := fmt.Sprintf("type%d", g)
			for i := 0; i < perG/2; i++ {
				if err := e.Ingest(mkEvent(typ, i)); err != nil {
					t.Error(err)
					return
				}
				if n := delivered(typ, i); n != 1 {
					t.Errorf("%s/%d delivered %d times when Ingest returned", typ, i, n)
					return
				}
			}
			batch := make([]*event.Event, perG/2)
			for i := range batch {
				batch[i] = mkEvent(typ, perG/2+i)
			}
			if err := e.IngestBatch(batch); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	const want = goroutines * perG
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != want {
		t.Errorf("%d distinct events delivered, want %d", len(seen), want)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("%s delivered %d times", k, n)
		}
	}
	if got := e.Ingested(); got != want {
		t.Errorf("ingested = %d, want %d", got, want)
	}
}

// TestCloseDrainsInFlight races Ingest against Close: every Ingest that
// returned nil delivered before it returned, so Close loses none of
// them, and every Ingest after it fails with ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered, accepted atomic.Int64
	e.Subscribe("all", "ops", "", func(pubsub.Delivery) { delivered.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := e.Ingest(mkEvent(fmt.Sprintf("t%d", g), i))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted.Add(1)
			}
		}(g)
	}
	for accepted.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got, want := delivered.Load(), accepted.Load(); got != want {
		t.Errorf("delivered = %d, want the %d accepted", got, want)
	}
	if err := e.Ingest(mkEvent("late", 0)); err != ErrClosed {
		t.Errorf("ingest after close: err = %v, want ErrClosed", err)
	}
	if err := e.IngestBatch([]*event.Event{mkEvent("late", 1)}); err != ErrClosed {
		t.Errorf("batch after close: err = %v, want ErrClosed", err)
	}
}

// TestReentrantCaptureDoesNotDeadlock exercises the re-entrant shape:
// a rule action writes to a captured table, whose trigger re-enters the
// ingest path inline. From one goroutine, each captured insert is
// delivered before the Ingest that caused it returns. From several, a
// commit's trigger runs on whichever goroutine is delivering commits in
// commit order, so the guarantee is that nothing deadlocks and every
// capture is in once they have all returned.
func TestReentrantCaptureDoesNotDeadlock(t *testing.T) {
	e := open(t, Config{})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.CaptureTable("readings"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	captured := map[string]bool{} // meters whose insert was delivered
	e.Subscribe("cap", "x", "$type = 'db.readings.insert'", func(d pubsub.Delivery) {
		m, _ := d.Event.Get("new_meter")
		s, _ := m.AsString()
		mu.Lock()
		captured[s] = true
		mu.Unlock()
	})
	isCaptured := func(meter string) bool {
		mu.Lock()
		defer mu.Unlock()
		return captured[meter]
	}
	// Every "reading" event inserts a row named after it; the trigger
	// turns that into a "db.readings.insert" event.
	err := e.AddRule("persist", "$type = 'reading'", 0, func(ev *event.Event, _ *rules.Rule) {
		meter, _ := ev.Get("meter")
		if _, err := e.DB.Insert("readings", map[string]val.Value{
			"meter": meter, "kwh": val.Float(1),
		}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// ingest runs n readings for producer g, checking each capture on
	// return when alone is set.
	const n = 50
	ingest := func(g int, alone bool) {
		for i := 0; i < n; i++ {
			meter := fmt.Sprintf("m%d-%d", g, i)
			if err := e.Ingest(event.New("reading", map[string]any{"meter": meter})); err != nil {
				t.Error(err)
				return
			}
			if alone && !isCaptured(meter) {
				t.Errorf("capture of %s not delivered when its Ingest returned", meter)
				return
			}
		}
	}
	const goroutines = 4
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingest(0, true)
		var wg sync.WaitGroup
		for g := 1; g <= goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ingest(g, false)
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("re-entrant capture deadlocked")
	}
	mu.Lock()
	defer mu.Unlock()
	if want := (goroutines + 1) * n; len(captured) != want {
		t.Errorf("captured %d of %d inserts", len(captured), want)
	}
}

// TestCloseDrainPreservesCaptureCascades: a watch poll Close waits out
// still evaluates what it captured, and the rule actions it fires write
// to a captured table whose cascades must still be captured — Close
// detaches trigger capture only after the last poll.
func TestCloseDrainPreservesCaptureCascades(t *testing.T) {
	e := watchEngine(t)
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.CaptureTable("readings"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := e.DB.Insert("stock", map[string]val.Value{
			"sku": val.String(fmt.Sprintf("s%d", i)), "qty": val.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var captured atomic.Int64
	e.Subscribe("cap", "x", "$type = 'db.readings.insert'", func(pubsub.Delivery) {
		captured.Add(1)
	})
	e.AddRule("persist", "$type = 'query.w.added'", 0, func(*event.Event, *rules.Rule) {
		if _, err := e.DB.Insert("readings", map[string]val.Value{
			"meter": val.String("m"), "kwh": val.Float(1),
		}); err != nil {
			t.Error(err)
		}
	})
	// The baseline poll runs whatever happens next, so Close right away
	// waits for it: n "added" events, each cascading into one capture.
	if err := e.Register(KindWatch, "w", []byte(`{"query":{"table":"stock","select":["sku","qty"]},"key":["sku"],"interval_ms":3600000}`)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := captured.Load(); got != n {
		t.Errorf("captured %d of %d cascade events across Close", got, n)
	}
	if err := e.Ingest(mkEvent("late", 0)); err != ErrClosed {
		t.Errorf("ingest after close: err = %v, want ErrClosed", err)
	}
}

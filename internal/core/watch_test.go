package core

import (
	"errors"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/pubsub"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func watchEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	schema, err := storage.NewSchema("stock", []storage.Column{
		{Name: "sku", Kind: val.KindString, NotNull: true},
		{Name: "qty", Kind: val.KindInt, NotNull: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestWatchScheduler registers a watch and sees the baseline and a
// subsequent change arrive through the ingest path without any manual
// polling.
func TestWatchScheduler(t *testing.T) {
	eng := watchEngine(t)
	if _, err := eng.DB.Insert("stock", map[string]val.Value{
		"sku": val.String("w"), "qty": val.Int(1),
	}); err != nil {
		t.Fatal(err)
	}

	events := make(chan *event.Event, 16)
	if err := eng.Subscribe("watcher", "test", "query = 'low'", func(d pubsub.Delivery) {
		events <- d.Event
	}); err != nil {
		t.Fatal(err)
	}

	spec := []byte(`{"query":{"table":"stock","where":"qty < 5","select":["sku","qty"]},"key":["sku"],"interval_ms":1}`)
	if err := eng.Register(KindWatch, "low", spec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(KindWatch, "low", spec); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate watch error = %v", err)
	}
	if got := eng.Watches(); len(got) != 1 || got[0] != "low" {
		t.Fatalf("watches = %v", got)
	}

	// Baseline: the existing row reports as added.
	ev := recvEvent(t, events)
	if ev.Type != "query.low.added" {
		t.Fatalf("baseline event = %q", ev.Type)
	}

	// A later commit shows up as a diff on a subsequent poll.
	if _, err := eng.DB.Insert("stock", map[string]val.Value{
		"sku": val.String("g"), "qty": val.Int(2),
	}); err != nil {
		t.Fatal(err)
	}
	ev = recvEvent(t, events)
	if ev.Type != "query.low.added" {
		t.Fatalf("diff event = %q", ev.Type)
	}
	if sku, _ := ev.Get("new_sku"); sku.String() != `"g"` {
		t.Fatalf("diff sku = %s", sku)
	}

	// Unregister halts polling: no event for a change made after it.
	if err := eng.Unregister(KindWatch, "low"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unregister(KindWatch, "low"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double stop error = %v", err)
	}
	if _, err := eng.DB.Insert("stock", map[string]val.Value{
		"sku": val.String("x"), "qty": val.Int(3),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("event after Unregister: %s", ev.Type)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestWatchStopsOnClose proves Close halts every poll loop: no watch
// goroutine may outlive the engine it ingests into.
func TestWatchStopsOnClose(t *testing.T) {
	eng := watchEngine(t)
	for _, name := range []string{"w1", "w2"} {
		if err := eng.Register(KindWatch, name, []byte(`{"query":{"table":"stock","select":["sku"]},"key":["sku"],"interval_ms":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Watches(); len(got) != 0 {
		t.Fatalf("watches after close = %v", got)
	}
}

func recvEvent(t *testing.T, ch <-chan *event.Event) *event.Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for event")
		return nil
	}
}

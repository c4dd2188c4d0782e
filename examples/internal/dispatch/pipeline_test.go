package dispatch

// The consumption end of a whole pipeline: an engine opened through the
// public API feeds a Dispatcher, and experiment E12 pumps Forwarders.

import (
	"fmt"
	"testing"

	"eventdb"
	"eventdb/internal/event"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestPipelineTriggerToDispatch runs the full flow: table insert →
// trigger capture → rule → alert queue → dispatcher handler, and checks
// lineage of counts at each stage.
func TestPipelineTriggerToDispatch(t *testing.T) {
	eng, err := eventdb.Open(eventdb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	schema, _ := eventdb.NewSchema("orders", []eventdb.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "amount", Kind: val.KindFloat, NotNull: true},
	}, "id")
	if err := eng.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	alerts, err := eng.CreateQueue("alerts", eventdb.QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Rule: big orders captured from the trigger stream go to the queue.
	err = eng.AddRule("big-order", "$type = 'db.orders.insert' AND new_amount >= 1000", 5,
		func(ev *eventdb.Event, _ *eventdb.Rule) {
			if _, err := alerts.Enqueue(ev, queue.EnqueueOptions{Priority: 1}); err != nil {
				t.Error(err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CaptureTable("orders"); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 20; i++ {
		amount := float64(i * 100) // 1000+ for i >= 10
		if _, err := eng.DB.Insert("orders", map[string]val.Value{
			"id": val.Int(int64(i)), "amount": val.Float(amount),
		}); err != nil {
			t.Fatal(err)
		}
	}

	handled := 0
	d := NewDispatcher(alerts)
	d.Handle("db.orders.insert", func(ev *event.Event) error {
		handled++
		return nil
	})
	if _, err := d.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if handled != 11 { // orders 10..20
		t.Errorf("handled = %d, want 11", handled)
	}
	if eng.Ingested() != 20 {
		t.Errorf("ingested = %d", eng.Ingested())
	}
}

// BenchmarkE12Forward is experiment E12, multi-hop forwarding: one
// message enqueued, pumped across 1, 2 and 4 staging areas, consumed.
func BenchmarkE12Forward(b *testing.B) {
	for _, hops := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			db, err := storage.Open(storage.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			qm := queue.NewManager(db)
			defer qm.Close()
			qs := make([]*queue.Queue, hops+1)
			for i := range qs {
				q, err := qm.Create(fmt.Sprintf("hop%d", i), queue.Config{})
				if err != nil {
					b.Fatal(err)
				}
				qs[i] = q
			}
			fwds := make([]*Forwarder, hops)
			for i := 0; i < hops; i++ {
				fwds[i] = &Forwarder{Src: qs[i], Dst: qs[i+1]}
			}
			ev := event.New("e", map[string]any{"n": 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qs[0].Enqueue(ev, queue.EnqueueOptions{}); err != nil {
					b.Fatal(err)
				}
				for _, f := range fwds {
					if _, err := f.Pump(0); err != nil {
						b.Fatal(err)
					}
				}
				msg, ok, err := qs[hops].Dequeue("sink")
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
				qs[hops].Ack(msg.Receipt)
			}
		})
	}
}

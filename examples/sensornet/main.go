// SensorNet: the paper's first-responder use case — capture a wide
// variety of data and deliver it to responders, across a multi-hop
// topology: edge sites persist readings in local tables; journal mining
// captures committed changes; alerts forward through staging areas
// (edge → regional → national) with a flaky uplink absorbed by
// retry/redelivery and a dead-letter queue.
//
// Run with: go run ./examples/sensornet
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"eventdb"
	"eventdb/examples/internal/dispatch"
	"eventdb/examples/internal/workload"
	"eventdb/internal/queue"
	"eventdb/internal/val"
)

func main() {
	// Durable engine: the edge site must survive crashes. Journal-
	// captured readings are batch-ingested in commit order on the
	// journal tail's goroutine, so the "danger" rule below runs there.
	eng, err := eventdb.Open(eventdb.Config{Dir: mustTempDir()})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Edge: sensor readings land in a table (normal database writes).
	schema, err := eventdb.NewSchema("readings", []eventdb.Column{
		{Name: "site", Kind: val.KindString, NotNull: true},
		{Name: "kind", Kind: val.KindString, NotNull: true},
		{Name: "level", Kind: val.KindFloat, NotNull: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.DB.CreateTable(schema); err != nil {
		log.Fatal(err)
	}

	// Staging topology: edge → regional → national.
	edgeQ, _ := eng.CreateQueue("edge", queue.Config{MaxAttempts: 4})
	regionalQ, _ := eng.CreateQueue("regional", queue.Config{MaxAttempts: 4})
	nationalQ, _ := eng.CreateQueue("national", queue.Config{MaxAttempts: 4})

	// Journal capture: committed readings become events; a rule filters
	// the dangerous ones into the edge staging area.
	stop, err := eng.TailJournal(eventdb.JournalFilter{Tables: []string{"readings"}})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	err = eng.AddRule("danger", "$type = 'journal.readings.insert' AND new_level >= 8", 5,
		func(ev *eventdb.Event, _ *eventdb.Rule) {
			if _, err := edgeQ.Enqueue(ev, queue.EnqueueOptions{Priority: 5}); err != nil {
				log.Print(err)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Forward edge → regional (reliable LAN).
	edgeToRegional := &dispatch.Forwarder{Src: edgeQ, Dst: regionalQ}

	// Regional → national over a flaky uplink (30% failure) with
	// retries; undeliverable messages dead-letter at the regional tier.
	rng := rand.New(rand.NewSource(99))
	uplink := dispatch.ServiceFunc(func(ev *eventdb.Event) error {
		if rng.Float64() < 0.3 {
			return errors.New("uplink timeout")
		}
		_, err := nationalQ.Enqueue(ev, queue.EnqueueOptions{})
		return err
	})
	bridge := &dispatch.ServiceBridge{Q: regionalQ, Svc: uplink,
		Policy: dispatch.RetryPolicy{MaxRetries: 3, Backoff: 1}}

	// National dispatcher: responders are activated per hazard kind.
	perKind := map[string]int{}
	d := dispatch.NewDispatcher(nationalQ)
	d.Handle("journal.readings.insert", func(ev *eventdb.Event) error {
		k, _ := ev.Get("new_kind")
		kind, _ := k.AsString()
		perKind[kind]++
		return nil
	})

	// Drive the feed: write readings into the edge table like any app.
	gen := workload.NewSensors(21, 5)
	gen.BurstRate = 0.003
	dangerous := 0
	for i := 0; i < 20000; i++ {
		ev, inBurst := gen.Next()
		if inBurst {
			dangerous++
		}
		site, _ := ev.Get("site")
		kind, _ := ev.Get("kind")
		level, _ := ev.Get("level")
		if _, err := eng.DB.Insert("readings", map[string]val.Value{
			"site": site, "kind": kind, "level": level,
		}); err != nil {
			log.Fatal(err)
		}
		// Pump the topology periodically (a scheduler would in prod).
		if i%100 == 0 {
			pump(edgeToRegional, bridge)
		}
	}
	// Final drains: journal tail is async, so settle, then pump.
	settle(eng, 20000)
	for i := 0; i < 8; i++ {
		pump(edgeToRegional, bridge)
	}
	if _, err := d.DrainOnce(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("---")
	fmt.Printf("readings written:         20000\n")
	fmt.Printf("dangerous readings:       %d\n", dangerous)
	fmt.Printf("forwarded edge→regional:  %d\n", edgeToRegional.Forwarded())
	fmt.Printf("delivered over uplink:    %d\n", bridge.Delivered())
	fmt.Printf("handled at national:      %d by kind %v\n", d.Handled(), perKind)
	rs := regionalQ.Stats()
	fmt.Printf("regional DLQ:             %d (uplink gave up)\n", rs.Dead)
	if ids, _, err := regionalQ.DeadLetters(); err == nil && len(ids) > 0 {
		fmt.Printf("redriving %d dead letters after uplink repair...\n", len(ids))
		for _, id := range ids {
			regionalQ.Requeue(id)
		}
	}
}

func pump(f *dispatch.Forwarder, b *dispatch.ServiceBridge) {
	if _, err := f.Pump(0); err != nil {
		log.Print(err)
	}
	if _, err := b.PumpOnce(); err != nil {
		log.Print(err)
	}
}

// settle waits for the async journal tail to deliver all captures.
func settle(eng *eventdb.Engine, want uint64) {
	for i := 0; i < 1000 && eng.Ingested() < want; i++ {
		time.Sleep(2 * time.Millisecond)
	}
}

func mustTempDir() string {
	dir, err := os.MkdirTemp("", "sensornet-*")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}

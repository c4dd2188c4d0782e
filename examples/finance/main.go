// Finance: the paper's financial-services use case — react to
// opportunities and threats in a market feed.
//
// The pipeline combines three evaluation technologies over one stream:
//
//   - a CEP pattern (three consecutively rising prices for a symbol →
//     momentum signal),
//   - a continuous query (sliding average price per symbol),
//   - threshold rules delivering into a prioritized alert queue consumed
//     by a dispatcher.
//
// Run with: go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"time"

	"eventdb"
	"eventdb/examples/internal/dispatch"
	"eventdb/examples/internal/workload"
	"eventdb/internal/cep"
	"eventdb/internal/cq"
	"eventdb/internal/query"
	"eventdb/internal/queue"
)

func main() {
	eng, err := eventdb.Open(eventdb.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Staging area for alerts, consumed asynchronously.
	alerts, err := eng.CreateQueue("alerts", eventdb.QueueConfig{MaxAttempts: 3})
	if err != nil {
		log.Fatal(err)
	}

	// CEP: momentum = three rising trades of the same symbol within 10s.
	pattern := cep.NewPattern("momentum").
		Next("a", "trade", "").
		Next("b", "trade", "sym = a.sym AND price > a.price").
		Next("c", "trade", "sym = b.sym AND price > b.price").
		Within(10 * time.Second).
		MustBuild()
	matcher := cep.NewShared()
	if err := matcher.Add(pattern); err != nil {
		log.Fatal(err)
	}

	// Continuous query: sliding 100-trade average price per symbol.
	avg, err := cq.New(cq.Def{
		Name:    "avgprice",
		GroupBy: []string{"sym"},
		Aggs: []cq.AggDef{
			{Alias: "trades", Kind: query.Count},
			{Alias: "avg_price", Kind: query.Avg, Attr: "price"},
		},
		Window: cq.Window{Kind: cq.CountWindow, Size: 100},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Rule: big prints (block trades) are threats/opportunities —
	// straight into the alert queue at high priority.
	err = eng.AddRule("block-trade", "qty >= 900", 10,
		func(ev *eventdb.Event, _ *eventdb.Rule) {
			if _, err := alerts.Enqueue(ev, queue.EnqueueOptions{Priority: 9}); err != nil {
				log.Print(err)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Consume alerts: application activation by event type.
	momentumSeen, blocksSeen := 0, 0
	d := dispatch.NewDispatcher(alerts)
	d.Handle("cep.momentum", func(ev *eventdb.Event) error {
		momentumSeen++
		if momentumSeen <= 3 {
			sym, _ := ev.Get("a_sym")
			p1, _ := ev.Get("a_price")
			p3, _ := ev.Get("c_price")
			fmt.Printf("MOMENTUM %s: %s -> %s\n", sym, p1, p3)
		}
		return nil
	})
	d.Handle("trade", func(ev *eventdb.Event) error {
		blocksSeen++
		if blocksSeen <= 3 {
			fmt.Printf("BLOCK TRADE %s\n", ev)
		}
		return nil
	})

	// Drive the market feed through everything.
	gen := workload.NewTrades(42, 12, 100)
	const nEvents = 20000
	var cqUpdates int
	for i := 0; i < nEvents; i++ {
		ev := gen.Next()
		if err := eng.Ingest(ev); err != nil {
			log.Fatal(err)
		}
		for _, m := range matcher.Feed(ev) {
			if _, err := alerts.Enqueue(m.Event(), queue.EnqueueOptions{Priority: 5}); err != nil {
				log.Fatal(err)
			}
		}
		cqUpdates += len(avg.Feed(ev))
	}
	if _, err := d.DrainOnce(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("---")
	fmt.Printf("trades processed:   %d\n", nEvents)
	fmt.Printf("momentum signals:   %d\n", momentumSeen)
	fmt.Printf("block-trade alerts: %d\n", blocksSeen)
	fmt.Printf("cq result updates:  %d\n", cqUpdates)
	fmt.Printf("alerts handled:     %d (failed %d)\n", d.Handled(), d.Failed())
	st := alerts.Stats()
	fmt.Printf("queue after drain:  ready=%d inflight=%d dead=%d\n", st.Ready, st.Inflight, st.Dead)
}

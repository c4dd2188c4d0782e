// Netfeed: the streaming protocol end to end in one process — an
// eventdb engine served over TCP, a market-data publisher feeding it
// PUBB batches on one connection, and two independent consumer
// connections: a filtered subscriber receiving pushed matches and a
// continuous query receiving incremental windowed aggregates. This is
// the paper's pub/sub extension (§2.2.c.i.2) made reachable by foreign
// systems: subscriptions live *in the store* as indexed predicates;
// the wire only carries events that matter.
//
// Run with: go run ./examples/netfeed
package main

import (
	"fmt"
	"log"
	"sync"

	"eventdb/client"
	"eventdb/examples/internal/workload"
	"eventdb/internal/core"
	"eventdb/internal/server"
)

func main() {
	// The "database": an engine with a streaming front door. A real
	// deployment runs cmd/eventdbd; everything below it is unchanged.
	eng, err := core.Open(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{
		SubBuffer: 1024,
		MaxConns:  64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("netfeed serving on %s\n\n", srv.Addr())

	var wg sync.WaitGroup

	// Consumer 1: a subscriber interested only in big ACME trades. The
	// predicate travels to the server; matching happens in the store.
	subConn, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer subConn.Close()
	sub, err := subConn.Subscribe("big-acme", "sym = 'SYM000' AND qty >= 400", 256)
	if err != nil {
		log.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for ev := range sub.C {
			px, _ := ev.Get("price")
			qty, _ := ev.Get("qty")
			if n < 5 {
				fmt.Printf("  [subscriber] big SYM000 trade: qty=%s @ %s\n", qty, px)
			}
			n++
		}
		fmt.Printf("  [subscriber] total pushed matches: %d\n", n)
	}()

	// Consumer 2: a continuous query — per-symbol average price over a
	// sliding 200-trade window, updated incrementally in the server.
	cqConn, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cqConn.Close()
	cqSub, err := cqConn.ContinuousQuery("px", client.CQSpec{
		GroupBy: []string{"sym"},
		Aggs: []client.CQAgg{
			{Alias: "trades", Kind: client.Count},
			{Alias: "avg_px", Kind: client.Avg, Attr: "price"},
		},
		Window: client.CQWindow{Kind: client.CountWindow, Size: 200},
	}, 4096)
	if err != nil {
		log.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		updates := 0
		var last *client.Event
		for ev := range cqSub.C {
			updates++
			last = ev
		}
		if last != nil {
			sym, _ := last.Get("sym")
			avg, _ := last.Get("avg_px")
			fmt.Printf("  [cq] %d incremental updates; last: sym=%s avg_px=%s\n", updates, sym, avg)
		}
	}()

	// The publisher: a foreign system pumping trades over its own
	// connection in batches; each PublishBatch returns once the server
	// has evaluated the batch and queued every push it caused.
	pubConn, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer pubConn.Close()
	gen := workload.NewTrades(42, 8, 100)
	const total, batch = 5000, 250
	for sent := 0; sent < total; sent += batch {
		evs := make([]*client.Event, batch)
		for i := range evs {
			evs[i] = gen.Next()
		}
		if _, err := pubConn.PublishBatch(evs); err != nil {
			log.Fatal(err)
		}
	}

	// Ask the server how each consumer connection fared.
	for name, c := range map[string]*client.Conn{"subscriber": subConn, "cq": cqConn} {
		st, err := c.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [stats] %s conn: sent=%d dropped=%d subs=%d cqs=%d\n",
			name, st.Sent, st.Dropped, st.Subs, st.CQs)
	}

	fmt.Printf("\npublished %d trades; shutting down\n", total)
	srv.Close() // subscribers observe shutdown as closed channels
	wg.Wait()
}

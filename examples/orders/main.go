// Orders: durable subscriptions end to end — kill a consumer
// mid-stream and resume without losing an order. An order-processing
// worker attaches to a durable queue over TCP; matched orders are
// staged in a WAL-backed table before delivery, so when the worker
// "crashes" with deliveries unacknowledged, reconnecting (even across
// a full server restart on the same data directory) redelivers exactly
// the unprocessed orders. Finally REPLAY backfills the complete order
// history from the journal — including orders long since acked and
// deleted (the paper's hybrid historical+live consumption, §2.2.a.ii,
// §2.2.b).
//
// Run with: go run ./examples/orders
package main

import (
	"fmt"
	"log"
	"os"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/queue"
	"eventdb/internal/server"
)

// boot starts the eventdbd arrangement: durable engine, its durable
// registrations (QSUB bindings, PATTERNs) restored, TCP server.
func boot(dir string) (*core.Engine, *server.Server) {
	eng, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.RestoreRegistrations(queue.Config{}); err != nil {
		log.Fatal(err)
	}
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	return eng, srv
}

func publish(addr string, from, to int) {
	pub, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()
	for i := from; i < to; i++ {
		ev := client.NewEvent("order", map[string]any{
			"order": i,
			"total": 25 + 10*i,
		})
		if _, err := pub.Publish(ev); err != nil {
			log.Fatal(err)
		}
	}
}

func orderNo(d client.Delivery) int {
	v, _ := d.Event.Get("order")
	n, _ := v.AsInt()
	return int(n)
}

func main() {
	dir, err := os.MkdirTemp("", "orders-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	eng, srv := boot(dir)
	fmt.Printf("orders serving on %s (data in %s)\n\n", srv.Addr(), dir)

	// The worker attaches: "orders" becomes a durable queue fed by
	// every event matching the filter, whoever publishes it.
	worker, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	sub, err := worker.DurableSubscribe("orders", "total >= 50", client.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}

	publish(srv.Addr(), 0, 12) // orders 0,1,2 have total < 50: filtered out
	processed := map[int]bool{}
	for i := 0; i < 9; i++ {
		d := <-sub.C
		if i < 5 {
			// Process five orders properly: ack deletes them.
			if err := d.Ack(); err != nil {
				log.Fatal(err)
			}
			processed[orderNo(d)] = true
			continue
		}
		// The rest were delivered but the worker dies before acking.
	}
	fmt.Printf("worker 1 processed %d orders, then crashed with 4 deliveries unacked\n", len(processed))
	worker.Close()

	// Orders keep arriving while no worker is attached: the durable
	// queue absorbs them.
	publish(srv.Addr(), 12, 15)
	fmt.Println("3 more orders arrived while the worker was down")

	// Even a full server restart loses nothing: queue contents and the
	// filter binding reload from the data directory.
	srv.Close()
	eng.Close()
	eng, srv = boot(dir)
	defer eng.Close()
	defer srv.Close()
	fmt.Printf("server restarted on %s\n\n", srv.Addr())

	worker2, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer worker2.Close()
	sub2, err := worker2.DurableSubscribe("orders", "total >= 50", client.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// 12 + 3 published, 3 filtered, 5 acked → 7 outstanding.
	for i := 0; i < 7; i++ {
		d := <-sub2.C
		if processed[orderNo(d)] {
			log.Fatalf("order %d processed twice", orderNo(d))
		}
		if err := d.Ack(); err != nil {
			log.Fatal(err)
		}
		processed[orderNo(d)] = true
		fmt.Printf("worker 2 recovered order %d (total %d)\n", orderNo(d), 25+10*orderNo(d))
	}
	st, err := worker2.QueueStats("orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d matching orders processed exactly once; queue empty: %+v\n", len(processed), st)

	// The queue is empty — but the journal remembers. Backfill the
	// complete history from LSN 0.
	n, next, err := sub2.Replay(0)
	if err != nil {
		log.Fatal(err)
	}
	hist := 0
	for i := 0; i < n; i++ {
		d := <-sub2.C
		if d.Historical {
			hist++
		}
	}
	fmt.Printf("replayed %d historical orders from the journal (resume cursor: LSN %d)\n", hist, next)
}

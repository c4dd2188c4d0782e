// Inventory: the database plane end to end — a table, triggers, and a
// watched query, all driven over the wire, with captured events landing
// in a durable consumer.
//
// A stock table is declared with TABLE; a BEFORE trigger vetoes
// negative stock (the guard is a client error, nothing commits); an
// AFTER trigger captures every committed change; and a WATCHed query
// polls for items below their reorder point, so crossing the threshold
// emits a "query.reorder.added" event without any client polling.
// Reorder events are bound to a durable queue (QSUB), so the
// purchasing consumer can disconnect and reconnect without missing a
// reorder — the paper's §2.2.a capture mechanisms feeding its §2.2.b
// staging areas, one connection end to end.
//
// Run with: go run ./examples/inventory
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/server"
)

func main() {
	eng, err := core.Open(core.Config{WatchInterval: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ops, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()

	// Declare the schema and its guards over the wire.
	if err := ops.CreateTable(client.TableSpec{
		Name: "stock",
		Columns: []client.ColumnSpec{
			{Name: "sku", Kind: "string", NotNull: true},
			{Name: "qty", Kind: "int", NotNull: true},
			{Name: "min", Kind: "int", NotNull: true},
		},
		Key: []string{"sku"},
	}); err != nil {
		log.Fatal(err)
	}
	if err := ops.Trigger("no_negative_stock", client.TriggerSpec{
		Table:  "stock",
		Timing: "before",
		When:   "new.qty < 0",
		Veto:   "stock cannot go negative",
	}); err != nil {
		log.Fatal(err)
	}
	if err := ops.Trigger("audit_stock", client.TriggerSpec{Table: "stock"}); err != nil {
		log.Fatal(err)
	}
	// The reorder report: a repeatedly-evaluated query whose result-set
	// changes are events (§2.2.a.iii).
	if err := ops.Watch("reorder", client.WatchSpec{
		Query: client.QuerySpec{
			Table:  "stock",
			Where:  "qty < min",
			Select: []string{"sku", "qty", "min"},
		},
		Key: []string{"sku"},
	}); err != nil {
		log.Fatal(err)
	}

	// Purchasing consumes reorder events durably: the queue holds them
	// until acknowledged, across disconnects.
	purchasing, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer purchasing.Close()
	reorders, err := purchasing.DurableSubscribe("purchasing", "query = 'reorder'",
		client.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Receive initial stock.
	for _, row := range []map[string]any{
		{"sku": "widget", "qty": 12, "min": 5},
		{"sku": "gadget", "qty": 8, "min": 4},
	} {
		if _, err := ops.Insert("stock", row); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("received %s ×%v\n", row["sku"], row["qty"])
	}

	// The guard trigger turns an impossible shipment into a client
	// error; the database state is untouched.
	_, err = ops.Update("stock", "sku = 'widget'", map[string]any{"qty": -3})
	var serr *client.Error
	if errors.As(err, &serr) && serr.Code == "aborted" {
		fmt.Printf("oversell rejected by BEFORE trigger: %s\n", serr.Msg)
	} else {
		log.Fatalf("expected a veto, got %v", err)
	}

	// Sales draw stock down; crossing the reorder point emits an event.
	for _, sale := range []struct {
		sku string
		qty int
	}{{"widget", 10}, {"gadget", 3}, {"widget", 1}} {
		res, err := ops.Select(client.QuerySpec{
			Table: "stock", Where: fmt.Sprintf("sku = '%s'", sale.sku), Select: []string{"qty"},
		})
		if err != nil || len(res.Rows) != 1 {
			log.Fatalf("lookup %s: %+v %v", sale.sku, res, err)
		}
		left := res.Rows[0][0].(int64) - int64(sale.qty)
		if _, err := ops.Update("stock",
			fmt.Sprintf("sku = '%s'", sale.sku),
			map[string]any{"qty": left}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sold %d %s (%d left)\n", sale.qty, sale.sku, left)
	}

	// Only widget crossed its reorder point (1 < 5); gadget ended at
	// 5 ≥ 4 and stays out of the watched result set.
	select {
	case d := <-reorders.C:
		sku, _ := d.Event.Get("new_sku")
		qty, _ := d.Event.Get("new_qty")
		min, _ := d.Event.Get("new_min")
		fmt.Printf("reorder event %s: %s at %s (min %s)\n", d.Event.Type, sku, qty, min)
		if err := d.Ack(); err != nil {
			log.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		log.Fatal("no reorder event")
	}

	// The durable queue is drained — purchasing saw exactly one reorder.
	st, err := purchasing.QueueStats("purchasing")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("purchasing queue: ready=%d inflight=%d\n", st.Ready, st.Inflight)
	fmt.Println("done")
}

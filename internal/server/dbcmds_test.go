package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
)

// TestWireDatabaseRoundTrip is the acceptance path for the database
// plane: one connection creates a table, registers a trigger, inserts
// rows, and receives the captured events through a plain SUB — then a
// WATCHed query pushes a diff event after an UPDATE. All three of the
// paper's §2.2.a capture flavors ride the same connection.
func TestWireDatabaseRoundTrip(t *testing.T) {
	_, srv := startServer(t, core.Config{WatchInterval: 5 * time.Millisecond}, Config{})
	c := dial(t, srv)

	if err := c.CreateTable(client.TableSpec{
		Name: "stock",
		Columns: []client.ColumnSpec{
			{Name: "sku", Kind: "string", NotNull: true},
			{Name: "qty", Kind: "int", NotNull: true},
			{Name: "min", Kind: "int", NotNull: true},
		},
		Key: []string{"sku"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Trigger("capture_stock", client.TriggerSpec{Table: "stock"}); err != nil {
		t.Fatal(err)
	}
	// Captured change events are ordinary events to the broker.
	sub, err := c.Subscribe("changes", "table = 'stock'", 64)
	if err != nil {
		t.Fatal(err)
	}

	id, err := c.Insert("stock", map[string]any{"sku": "widget", "qty": 10, "min": 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("stock", map[string]any{"sku": "gadget", "qty": 7, "min": 2}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		ev := recv(t, sub)
		if ev.Type != "db.stock.insert" {
			t.Fatalf("captured type = %q", ev.Type)
		}
		sku, _ := ev.Get("new_sku")
		s, _ := sku.AsString()
		seen[s] = true
		if s == "widget" {
			rowid, _ := ev.Get("rowid")
			if n, _ := rowid.AsInt(); uint64(n) != id {
				t.Errorf("rowid attr = %d, want %d", n, id)
			}
		}
	}
	if !seen["widget"] || !seen["gadget"] {
		t.Fatalf("captured rows = %v", seen)
	}

	// One-shot SELECT through the planner.
	res, err := c.Select(client.QuerySpec{Table: "stock", Where: "qty > 8", Select: []string{"sku", "qty"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "widget" || res.Rows[0][1] != int64(10) {
		t.Fatalf("select result = %+v", res)
	}

	// Watched query: rows below their reorder point. The baseline poll
	// is empty (no row qualifies), so the first event is the UPDATE's.
	watchSub, err := c.Subscribe("low", "query = 'lowstock'", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Watch("lowstock", client.WatchSpec{
		Query: client.QuerySpec{Table: "stock", Where: "qty < min", Select: []string{"sku", "qty"}},
		Key:   []string{"sku"},
	}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Update("stock", "sku = 'widget'", map[string]any{"qty": 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("update count = %d", n)
	}
	ev := recv(t, watchSub)
	if ev.Type != "query.lowstock.added" {
		t.Fatalf("watch event type = %q", ev.Type)
	}
	if sku, _ := ev.Get("new_sku"); sku.String() != `"widget"` {
		t.Fatalf("watch event sku = %s", sku)
	}

	// The update itself was also captured by the trigger.
	upd := recv(t, sub)
	if upd.Type != "db.stock.update" {
		t.Fatalf("update capture type = %q", upd.Type)
	}
	oldQty, _ := upd.Get("old_qty")
	newQty, _ := upd.Get("new_qty")
	if o, _ := oldQty.AsInt(); o != 10 {
		t.Errorf("old_qty = %d", o)
	}
	if nq, _ := newQty.AsInt(); nq != 1 {
		t.Errorf("new_qty = %d", nq)
	}

	if err := c.Unwatch("lowstock"); err != nil {
		t.Fatal(err)
	}
	// DELETE is captured too, and reports the count.
	if n, err := c.Delete("stock", ""); err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if ev := recv(t, sub); ev.Type != "db.stock.delete" {
		t.Fatalf("delete capture type = %q", ev.Type)
	}
}

// TestWatchPatternAcrossStates: a pattern across states is an event
// (§2.2.a.iii.2) over the wire — a SUB filter over a WATCH's changed
// events, whose old_* and new_* attributes carry both states. A +20%
// update matches nothing; a doubling matches exactly once.
func TestWatchPatternAcrossStates(t *testing.T) {
	_, srv := startServer(t, core.Config{WatchInterval: 5 * time.Millisecond}, Config{})
	c := dial(t, srv)
	if err := c.CreateTable(client.TableSpec{Name: "positions", Key: []string{"acct"}, Columns: []client.ColumnSpec{
		{Name: "acct", Kind: "string", NotNull: true}, {Name: "qty", Kind: "int", NotNull: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("positions", map[string]any{"acct": "a1", "qty": 100}); err != nil {
		t.Fatal(err)
	}
	doubled, err := c.Subscribe("doubled", "$type = 'query.w.changed' AND new_qty >= old_qty * 2", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Every event of the watch, so each update waits for its poll.
	all, err := c.Subscribe("all", "query = 'w'", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Watch("w", client.WatchSpec{Query: client.QuerySpec{Table: "positions"}, Key: []string{"acct"}}); err != nil {
		t.Fatal(err)
	}
	if ev := recv(t, all); ev.Type != "query.w.added" {
		t.Fatalf("baseline event %q", ev.Type)
	}
	for _, qty := range []int64{120, 400, 480} { // +20%, doubled, +20%
		if _, err := c.Update("positions", "", map[string]any{"qty": qty}); err != nil {
			t.Fatal(err)
		}
		if ev := recv(t, all); ev.Type != "query.w.changed" || attrInt(ev, "new_qty") != qty {
			t.Fatalf("after the update to %d: %s %v", qty, ev.Type, ev.Attrs)
		}
	}
	ev := recv(t, doubled)
	if attrInt(ev, "old_qty") != 120 || attrInt(ev, "new_qty") != 400 {
		t.Fatalf("pattern matched %v", ev.Attrs)
	}
	if n := len(doubled.C); n != 0 {
		t.Fatalf("%d more pattern events, want none", n)
	}
}

// TestWireTriggerWhenGuards exercises trigger WHEN predicates over the
// wire: an UPDATE guard comparing old./new. images fires only on the
// qualifying transition, a BEFORE veto surfaces as a client error with
// the "aborted" code, and AFTER captures reach a concurrent SUB on a
// different connection.
func TestWireTriggerWhenGuards(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)

	if err := c.CreateTable(client.TableSpec{
		Name: "accounts",
		Columns: []client.ColumnSpec{
			{Name: "owner", Kind: "string", NotNull: true},
			{Name: "balance", Kind: "int", NotNull: true},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// BEFORE veto: no account may go negative.
	if err := c.Trigger("no_overdraft", client.TriggerSpec{
		Table:  "accounts",
		Timing: "before",
		Ops:    []string{"insert", "update"},
		When:   "new.balance < 0",
		Veto:   "balance must not go negative",
	}); err != nil {
		t.Fatal(err)
	}
	// AFTER capture guarded on the old./new. images: only fires when a
	// balance crosses from above to below 100.
	if err := c.Trigger("low_balance", client.TriggerSpec{
		Table:  "accounts",
		Timing: "after",
		Ops:    []string{"update"},
		When:   "old.balance >= 100 and new.balance < 100",
	}); err != nil {
		t.Fatal(err)
	}

	// The concurrent subscriber lives on its own connection.
	watcher := dial(t, srv)
	sub, err := watcher.Subscribe("lows", "table = 'accounts' and op = 'update'", 64)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Insert("accounts", map[string]any{"owner": "ada", "balance": 250}); err != nil {
		t.Fatal(err)
	}

	// BEFORE veto visible as a structured client error.
	_, err = c.Insert("accounts", map[string]any{"owner": "bob", "balance": -5})
	var serr *client.Error
	if !errors.As(err, &serr) || serr.Code != "aborted" {
		t.Fatalf("veto error = %v, want code aborted", err)
	}
	if !strings.Contains(serr.Msg, "balance must not go negative") {
		t.Fatalf("veto message = %q", serr.Msg)
	}
	// The vetoed transaction left no row behind.
	res, err := c.Select(client.QuerySpec{Table: "accounts", Select: []string{"owner"}})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rows after veto = %+v, %v", res, err)
	}

	// A drop that stays above the threshold does not fire the guard…
	if _, err := c.Update("accounts", "owner = 'ada'", map[string]any{"balance": 150}); err != nil {
		t.Fatal(err)
	}
	// …the crossing does.
	if _, err := c.Update("accounts", "owner = 'ada'", map[string]any{"balance": 60}); err != nil {
		t.Fatal(err)
	}
	ev := recv(t, sub)
	if ev.Type != "db.accounts.update" {
		t.Fatalf("captured type = %q", ev.Type)
	}
	oldBal, _ := ev.Get("old_balance")
	newBal, _ := ev.Get("new_balance")
	if o, _ := oldBal.AsInt(); o != 150 {
		t.Errorf("old_balance = %d, want 150 (the non-crossing update leaked through)", o)
	}
	if nb, _ := newBal.AsInt(); nb != 60 {
		t.Errorf("new_balance = %d", nb)
	}

	// An UPDATE vetoed by the BEFORE guard reports the aborted code and
	// changes nothing.
	if _, err := c.Update("accounts", "", map[string]any{"balance": -1}); err == nil {
		t.Fatal("negative update accepted")
	} else if !errors.As(err, &serr) || serr.Code != "aborted" {
		t.Fatalf("update veto error = %v", err)
	}
	res, err = c.Select(client.QuerySpec{Table: "accounts", Select: []string{"balance"}})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != int64(60) {
		t.Fatalf("balance after vetoed update = %+v, %v", res, err)
	}

	// Dropping the veto trigger re-opens the path.
	if err := c.DropTrigger("no_overdraft"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("accounts", "owner = 'ada'", map[string]any{"balance": -1}); err != nil {
		t.Fatalf("update after trigger drop: %v", err)
	}
}

// TestWireDBErrors pins the database plane's error codes.
func TestWireDBErrors(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := rawDial(t, srv)
	c.mustOK(`TABLE {"name":"t","columns":[{"name":"a","kind":"int","notnull":true}]}`)
	c.mustOK(`TABLE {"name":"k","columns":[{"name":"ts","kind":"time"},{"name":"raw","kind":"bytes"}]}`)
	for req, want := range map[string]string{
		// An INSERT payload: the JSON grammar first, then the shape of the
		// document, then the table, then each column's value; a repeated
		// column's last value is the one that counts.
		`INSERT t {"a": 1,}`:                 "ERR badjson ",
		`INSERT missing {"a": 1`:             "ERR badjson ",
		`INSERT t [1, 2]`:                    "ERR badspec ",
		`INSERT missing [1, 2]`:              "ERR badspec ",
		`INSERT t {"a": {"b": 1}}`:           "ERR badspec ",
		`INSERT t {"a": 1e999}`:              "ERR badspec ",
		`INSERT t {"a": 1, "z": [1e999]}`:    "ERR badspec ",
		`INSERT k {"ts": "yesterday"}`:       "ERR badspec ",
		`INSERT k {"raw": "not base64!"}`:    "ERR badspec ",
		`INSERT t {"a": {"b": 1}, "a": 2}`:   "OK ",
		`INSERT t {"a": 2, "a": null}`:       "ERR conflict ",
		`INSERT k {"ts": "x", "ts": null}`:   "OK ",
		`INSERT k {"raw": "aGk=", "raw": 1}`: "ERR conflict ",
		`INSERT t null`:                      "ERR conflict ",

		`TABLE {"name":"t","columns":[{"name":"a","kind":"int"}]}`: "ERR dup ",
		`TABLE {not json`:                            "ERR badjson ",
		`TABLE {"name":"u","columns":[]}`:            "ERR badspec ",
		`INSERT t {"nope": 1}`:                       "ERR badspec ",
		`INSERT t {"a": null}`:                       "ERR conflict ",
		`INSERT missing {"a": 1}`:                    "ERR notable ",
		`UPDATE t {"set":{}}`:                        "ERR badspec ",
		`UPDATE t {"where":"a >>> 1","set":{"a":2}}`: "ERR badspec ",
		`DELETE t {"where":"a >>> 1"}`:               "ERR badspec ",
		// A misspelled "where" must refuse, not silently match all rows.
		`DELETE t {"wher":"a = 1"}`:                         "ERR badspec ",
		`UPDATE t {"where":"a = 1","sett":{"a":2}}`:         "ERR badspec ",
		`TRIG x {"table":"t","when":"a <<"}`:                "ERR badspec ",
		`SELECT {"table":"missing"}`:                        "ERR notable ",
		`SELECT {"table":"t","aggs":[{"kind":"wat"}]}`:      "ERR badspec ",
		`TRIG x {"table":"missing"}`:                        "ERR notable ",
		`TRIG x {"table":"t","timing":"wat"}`:               "ERR badspec ",
		`TRIG x {"table":"t","veto":"nope"}`:                "ERR badspec ",
		`WATCH w {"query":{"table":"t"}}`:                   "ERR badspec ",
		`WATCH w {"query":{"table":"missing"},"key":["a"]}`: "ERR notable ",
		// A spec that names no table misses a field; an interval_ms a
		// Duration cannot hold is out of range.
		`SELECT {}`:                        "ERR badspec ",
		`SELECT {"table":""}`:              "ERR badspec ",
		`TRIG x {}`:                        "ERR badspec ",
		`TRIG x {"table":""}`:              "ERR badspec ",
		`WATCH w {"query":{},"key":["a"]}`: "ERR badspec ",
		`WATCH w {"query":{"table":"t"},"key":["a"],"interval_ms":99999999999999999}`: "ERR badspec ",
	} {
		if resp := c.ask(req); !strings.HasPrefix(resp, want) {
			t.Errorf("%s → %q, want prefix %q", req, resp, want)
		}
	}
	// Registered names collide with the dup code; unknown names miss
	// with their own codes.
	c.mustOK(`TRIG guard {"table":"t","timing":"before","when":"new.a < 0","veto":"no"}`)
	if resp := c.ask(`TRIG guard {"table":"t"}`); !strings.HasPrefix(resp, "ERR dup ") {
		t.Errorf("duplicate TRIG → %q", resp)
	}
	c.mustOK(`WATCH w {"query":{"table":"t"},"key":["a"]}`)
	if resp := c.ask(`WATCH w {"query":{"table":"t"},"key":["a"]}`); !strings.HasPrefix(resp, "ERR dup ") {
		t.Errorf("duplicate WATCH → %q", resp)
	}
	if resp := c.ask(`INSERT t {"a": -1}`); !strings.HasPrefix(resp, "ERR aborted ") {
		t.Errorf("vetoed INSERT → %q", resp)
	}
	c.mustOK("UNWATCH w")
	c.mustOK("UNTRIG guard")
}

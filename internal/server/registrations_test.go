package server

import (
	"strings"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/queue"
)

// TestRegistrationsAcrossRestart pins, verb by verb, which standing
// registrations a -dir daemon keeps across a restart — the table in
// PROTOCOL.md, "Who owns a registration". SUB and CQ belong to their
// connection and leave with it; QSUB bindings and PATTERNs are durable
// (wire_subs, wire_patterns); TRIG and WATCH are engine-scoped and
// volatile: the tables they watch come back from the WAL, the capture
// they set up does not. That last pair is the bug ROADMAP item 11
// fixes, and its two assertions are the lines that flip when it does.
func TestRegistrationsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// The eventdbd arrangement on a durable leader.
	open := func() (*core.Engine, *Server) {
		t.Helper()
		eng, err := core.Open(core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		eng.Broker.PersistOnlyQueueSubs(true)
		if err := eng.Broker.AttachStore(eng.DB, "wire_subs", eng.Queues, queue.Config{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.AttachPatternStore("wire_patterns"); err != nil {
			t.Fatal(err)
		}
		srv, err := StartConfig(eng, "127.0.0.1:0", Config{})
		if err != nil {
			t.Fatal(err)
		}
		return eng, srv
	}
	eng, srv := open()
	r := rawDial(t, srv)
	r.mustOK(`TABLE {"name":"orders","key":["id"],"columns":[{"name":"id","kind":"int"}]}`)
	bindings := eng.Broker.Len()
	r.mustOK(`SUB s1 $type = 'x'`)
	r.mustOK(`CQ c1 {"aggs":[{"alias":"n","kind":"count"}],"window":{"kind":"count","size":8}}`)
	r.mustOK(`QSUB q1 manual $type = 'x'`)
	r.mustOK(`PATTERN p1 {"steps":[{"alias":"a","type":"x"},{"alias":"b","type":"y"}]}`)
	r.mustOK(`TRIG t1 {"table":"orders","ops":["insert"]}`)
	r.mustOK(`WATCH w1 {"query":{"table":"orders"},"key":["id"]}`)
	if got := eng.Broker.Len(); got != bindings+3 {
		t.Fatalf("broker bindings = %d, want %d (SUB, CQ, QSUB)", got, bindings+3)
	}

	// Connection-scoped: SUB and CQ leave with their connection; the
	// QSUB binding and the engine-scoped registrations stay.
	r.nc.Close()
	for deadline := time.Now().Add(5 * time.Second); eng.Broker.Len() != bindings+1; {
		if time.Now().After(deadline) {
			t.Fatalf("broker bindings = %d after disconnect, want %d (QSUB)", eng.Broker.Len(), bindings+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(eng.Patterns()) != 1 || len(eng.Triggers.Triggers()) != 1 || len(eng.Watches()) != 1 {
		t.Fatalf("after disconnect: patterns %v, triggers %v, watches %v; want one each",
			eng.Patterns(), eng.Triggers.Triggers(), eng.Watches())
	}
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, srv = open()
	t.Cleanup(func() { srv.Close(); eng.Close() })
	r = rawDial(t, srv)
	if got := r.ask(`TABLE {"name":"orders","key":["id"],"columns":[{"name":"id","kind":"int"}]}`); !strings.HasPrefix(got, "ERR dup") {
		t.Errorf("TABLE after restart = %q: the table must come back from the WAL", got)
	}
	// Durable: the QSUB binding and the PATTERN.
	if f, ok := eng.Broker.FilterOf(qsubBindID("q1")); !ok || f != "$type = 'x'" {
		t.Errorf("QSUB q1 binding after restart = %q, %v; want it back", f, ok)
	}
	if got := eng.Patterns(); len(got) != 1 || got[0] != "p1" {
		t.Errorf("patterns after restart = %v, want [p1]", got)
	}
	// Engine-scoped, volatile: TRIG and WATCH are gone (ROADMAP item 11).
	if got := eng.Triggers.Triggers(); len(got) != 0 {
		t.Errorf("triggers after restart = %v: TRIG became durable — update PROTOCOL.md's table and this line", got)
	}
	if got := eng.Watches(); len(got) != 0 {
		t.Errorf("watches after restart = %v: WATCH became durable — update PROTOCOL.md's table and this line", got)
	}
	// Connection-scoped registrations did not come back either.
	if got := eng.Broker.Len(); got != bindings+1 {
		t.Errorf("broker bindings after restart = %d, want %d (QSUB only)", got, bindings+1)
	}
}

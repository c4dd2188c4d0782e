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
// connection and leave with it; QSUB bindings, PATTERNs, TRIGs and
// WATCHes are durable (rows of the engine's catalogue): the tables a
// TRIG or WATCH reads come back from the WAL, and the capture it set up
// comes back with them (ROADMAP item 11).
func TestRegistrationsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*core.Engine, *Server) { return openLeader(t, dir) }
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
	if _, trig := eng.Triggers.Lookup("t1"); len(eng.Patterns()) != 1 || !trig || len(eng.Watches()) != 1 {
		t.Fatalf("after disconnect: patterns %v, trigger t1 %v, watches %v; want one each",
			eng.Patterns(), trig, eng.Watches())
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
	// Durable: the QSUB binding, the PATTERN, the TRIG and the WATCH.
	if f, ok := eng.Broker.FilterOf("qsub.q1"); !ok || f != "$type = 'x'" {
		t.Errorf("QSUB q1 binding after restart = %q, %v; want it back", f, ok)
	}
	if got := eng.Patterns(); len(got) != 1 || got[0] != "p1" {
		t.Errorf("patterns after restart = %v, want [p1]", got)
	}
	if _, ok := eng.Triggers.Lookup("t1"); !ok {
		t.Error("trigger t1 did not come back after the restart")
	}
	if got := eng.Watches(); len(got) != 1 || got[0] != "w1" {
		t.Errorf("watches after restart = %v, want [w1]", got)
	}
	// Connection-scoped registrations did not come back either.
	if got := eng.Broker.Len(); got != bindings+1 {
		t.Errorf("broker bindings after restart = %d, want %d (QSUB only)", got, bindings+1)
	}
}

// openLeader is the eventdbd arrangement on a durable leader: an engine
// on dir with its registrations restored, and a server in front of it.
func openLeader(t *testing.T, dir string) (*core.Engine, *Server) {
	t.Helper()
	eng, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreRegistrations(queue.Config{}); err != nil {
		t.Fatal(err)
	}
	srv, err := StartConfig(eng, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// TestRestoredRegistrationsCapture restarts a -dir daemon and checks
// that what came back captures, in the order restore brings it back.
// Before the restart the WATCH's baseline runs ahead of the QSUB, so
// it stages nothing and the queue is empty at the restart. After it, the
// restored WATCH's baseline "added" event is staged in the restored
// QSUB's queue (bindings come back before watches start polling), and
// an INSERT is captured by the restored TRIG and staged behind it.
func TestRestoredRegistrationsCapture(t *testing.T) {
	dir := t.TempDir()
	eng, srv := openLeader(t, dir)
	r := rawDial(t, srv)
	r.mustOK(`TABLE {"name":"orders","key":["id"],"columns":[{"name":"id","kind":"int"}]}`)
	r.mustOK(`INSERT orders {"id":1}`)
	r.mustOK(`WATCH w1 {"query":{"table":"orders"},"key":["id"],"interval_ms":3600000}`)
	for deadline := time.Now().Add(5 * time.Second); eng.Ingested() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the WATCH's baseline did not run")
		}
		time.Sleep(time.Millisecond)
	}
	r.mustOK(`TRIG t1 {"table":"orders","ops":["insert"]}`)
	r.mustOK(`QSUB q1 manual table = 'orders' OR query = 'w1'`)
	r.nc.Close()
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, srv = openLeader(t, dir)
	t.Cleanup(func() { srv.Close(); eng.Close() })
	q, ok := eng.Queues.Get("q1")
	if !ok {
		t.Fatal("queue q1 did not come back")
	}
	baseline := staged(t, q, 1)
	r = rawDial(t, srv)
	r.mustOK(`INSERT orders {"id":2}`)
	var got []string
	for _, m := range append(baseline, staged(t, q, 1)...) {
		id, _ := m.Event.Get("new_id")
		got = append(got, m.Event.Type+" "+id.String())
	}
	want := []string{"query.w1.added 1", "db.orders.insert 2"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("staged after the restart: %q, want %q", got, want)
	}
}

// staged waits for n messages to be ready in q and claims them.
func staged(t *testing.T, q *queue.Queue, n int) []*queue.Msg {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); q.Stats().Ready < n; {
		if time.Now().After(deadline) {
			t.Fatalf("queue %s: %d of %d messages staged", q.Name(), q.Stats().Ready, n)
		}
		time.Sleep(time.Millisecond)
	}
	msgs, err := q.DequeueBatch("test", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n {
		t.Fatalf("queue %s: %d messages staged, want %d", q.Name(), len(msgs), n)
	}
	return msgs
}

// TestRegistrationTargetsAreData refuses a TRIG or WATCH on the tables
// behind registrations and queues: a BEFORE trigger vetoing the
// catalogue's writes could not be dropped, and its restore would refuse
// every registration after it.
func TestRegistrationTargetsAreData(t *testing.T) {
	dir := t.TempDir()
	eng, srv := openLeader(t, dir)
	t.Cleanup(func() { srv.Close(); eng.Close() })
	r := rawDial(t, srv)
	r.mustOK(`QSUB q1 manual $type = 'x'`)
	for _, req := range []string{
		`TRIG g {"table":"wire_registrations","timing":"before","veto":"no"}`,
		`TRIG g {"table":"q_q1"}`,
		`WATCH w {"query":{"table":"wire_registrations"},"key":["kind","name"]}`,
		`WATCH w {"query":{"table":"q_q1"},"key":["id"]}`,
	} {
		if got := r.ask(req); !strings.HasPrefix(got, "ERR notable ") {
			t.Errorf("%s → %q, want ERR notable", req, got)
		}
	}
	r.mustOK(`PATTERN p1 {"steps":[{"alias":"a","type":"x"},{"alias":"b","type":"y"}]}`)
	r.mustOK(`UNPATTERN p1`)
}

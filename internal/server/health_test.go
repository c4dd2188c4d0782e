package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/vfs"
)

func TestHealthWire(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)

	line := r.ask("HEALTH")
	// The text field order is frozen wire contract (PROTOCOL.md §9).
	want := []string{"role=leader", "degraded=0", "overloaded=0", "durable=0", "conns=1"}
	fields := strings.Fields(strings.TrimPrefix(line, "OK "))
	if !strings.HasPrefix(line, "OK role=") {
		t.Fatalf("HEALTH reply %q", line)
	}
	for i, w := range want {
		if fields[i] != w {
			t.Errorf("HEALTH field %d = %q, want %q (line %q)", i, fields[i], w, line)
		}
	}
	order := []string{"role", "degraded", "overloaded", "durable", "conns", "slow",
		"evicted", "shed", "panics", "last_applied", "next_lsn", "wal_lag", "queued", "qcap"}
	if len(fields) != len(order) {
		t.Fatalf("HEALTH has %d fields, want %d: %q", len(fields), len(order), line)
	}
	for i, key := range order {
		if !strings.HasPrefix(fields[i], key+"=") {
			t.Errorf("HEALTH field %d = %q, want key %q", i, fields[i], key)
		}
	}

	line = r.ask("HEALTH format=json")
	body, ok := strings.CutPrefix(line, "OK ")
	if !ok {
		t.Fatalf("HEALTH json reply %q", line)
	}
	var h client.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("HEALTH json %q: %v", body, err)
	}
	if h.Role != "leader" || h.Degraded || h.Conns != 1 {
		t.Errorf("HEALTH json = %+v", h)
	}

	if line := r.ask("HEALTH format=xml"); !strings.HasPrefix(line, "ERR badargs") {
		t.Errorf("bad format reply %q", line)
	}

	// queued, qcap and their JSON twins hold their places with zeros,
	// even on a durable server whose queue holds unconsumed messages.
	_, dsrv := startServer(t, core.Config{Dir: t.TempDir()}, Config{})
	backlog(t, dsrv, "q", 5)
	dr := rawDial(t, dsrv)
	if line := dr.ask("QSTATS q"); !strings.HasPrefix(line, "OK ready=5 ") {
		t.Fatalf("QSTATS q = %q, want 5 ready", line)
	}
	if line := dr.ask("HEALTH"); !strings.Contains(line, " durable=1 ") || !strings.HasSuffix(line, " queued=0 qcap=0") {
		t.Errorf("durable HEALTH = %q, want queued=0 qcap=0", line)
	}
	line = dr.ask("HEALTH format=json")
	for _, zero := range []string{`"queue_depths":[],`, `"queue_cap":0,`, `"dropped":0,`} {
		if !strings.Contains(line, zero) {
			t.Errorf("durable HEALTH json lacks %s: %q", zero, line)
		}
	}
}

// TestHealthDropped: HEALTH format=json's dropped is the server-wide
// count of push deliveries lost to DropOnFull, each subscription of a
// dropped grouped frame counted once. A HELLO 3 connection holding three
// match-all SUBs stops reading: its drops come in threes, they are its
// STATS dropped, and with what did arrive they account for every
// delivery.
func TestHealthDropped(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{SubBuffer: 8, Overflow: DropOnFull})
	slow := frameDial(t, srv, 3)
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if got := slow.ask("SUB " + id); got != "OK" {
			t.Fatalf("SUB %s → %q", id, got)
		}
	}
	// ...and now it stops reading, while events outgrow the socket's
	// buffers.
	pub := dial(t, srv)
	pad := strings.Repeat("x", 1024)
	published := 0
	var h client.Health
	for deadline := time.Now().Add(30 * time.Second); h.Dropped == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no push dropped; the overflow never engaged")
		}
		batch := make([]*client.Event, 500)
		for j := range batch {
			batch[j] = event.New("e", map[string]any{"seq": published + j, "pad": pad})
		}
		if _, err := pub.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
		published += len(batch)
		var err error
		if h, err = pub.Health(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Dropped%3 != 0 {
		t.Errorf("dropped %d deliveries of %d events, want a multiple of 3", h.Dropped, published)
	}
	var sent, dropped uint64
	stats := slow.ask("STATS")
	if _, err := fmt.Sscanf(stats, "OK sent=%d dropped=%d", &sent, &dropped); err != nil || dropped != h.Dropped {
		t.Errorf("STATS %q (%v), want dropped=%d", stats, err, h.Dropped)
	}
	got := len(slow.got["a"])
	for _, id := range ids {
		if len(slow.got[id]) != got {
			t.Errorf("SUB %s received %d events, SUB a %d", id, len(slow.got[id]), got)
		}
	}
	if uint64(3*got)+h.Dropped != uint64(3*published) {
		t.Errorf("received 3 × %d + dropped %d != 3 × %d published", got, h.Dropped, published)
	}
}

// TestHealthColumnar: HEALTH format=json shows the sealer's backlog —
// rows sit in tail_rows until a seal moves them to sealed_rows — so an
// operator can read sealer lag without forcing a seal; the text form
// is frozen and carries none of it.
func TestHealthColumnar(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)
	health := func() client.Health {
		t.Helper()
		body, ok := strings.CutPrefix(r.ask("HEALTH format=json"), "OK ")
		var h client.Health
		if err := json.Unmarshal([]byte(body), &h); !ok || err != nil {
			t.Fatalf("HEALTH json %q: %v", body, err)
		}
		return h
	}
	line := r.ask("HEALTH format=json")
	if !strings.Contains(line, `"columnar":{"segments":0,"sealed_rows":0,"tail_rows":0,"resident_segments":0,"cold_rows":0},"runtime":{"alloc_bytes":`) ||
		!regexp.MustCompile(`,"goroutines":\d+}}$`).MatchString(line) {
		t.Fatalf("columnar then runtime must be the last JSON fields: %q", line)
	}
	runtime.GC() // the live heap is measured by a collection
	if rt := health().Runtime; rt.AllocBytes == 0 || rt.AllocObjects == 0 || rt.GCCycles == 0 ||
		rt.HeapLiveBytes == 0 || rt.HeapGoalBytes == 0 || rt.Goroutines == 0 {
		t.Fatalf("runtime = %+v, want every counter set after a collection", rt)
	}
	for _, name := range []string{"a", "b"} {
		if line := r.ask(`TABLE {"name":"` + name + `","columns":[{"name":"n","kind":"int","notnull":true}]}`); line != "OK" {
			t.Fatalf("TABLE: %q", line)
		}
		for _, row := range []string{`{"n": 1}`, `{"n": 2}`, `{"n": 3}`} {
			if line := r.ask("INSERT " + name + " " + row); !strings.HasPrefix(line, "OK") {
				t.Fatalf("INSERT: %q", line)
			}
		}
	}
	if c := health().Columnar; c.TailRows != 6 || c.SealedRows != 0 || c.Segments != 0 {
		t.Fatalf("before any seal: %+v, want 6 tail rows", c)
	}
	if line := r.ask("COMPACT a"); !strings.HasPrefix(line, "OK") {
		t.Fatalf("COMPACT: %q", line)
	}
	if c := health().Columnar; c.TailRows != 3 || c.SealedRows != 3 || c.Segments != 1 {
		t.Fatalf("after sealing one table: %+v, want 3 tail, 3 sealed, 1 segment", c)
	}
	if line := r.ask("HEALTH"); strings.Contains(line, "tail") || len(strings.Fields(line)) != 15 {
		t.Fatalf("text HEALTH changed: %q", line)
	}
}

// TestDegradedGatingAndRecover drives the wire half of the fail-stop
// lifecycle: an injected fsync failure degrades the engine, every
// mutating verb answers "ERR degraded" while reads keep serving, and
// an operator RECOVER (after the device heals) resumes writes.
func TestDegradedGatingAndRecover(t *testing.T) {
	fsys := vfs.NewFaulty(nil)
	eng, srv := startServer(t, core.Config{Dir: t.TempDir(), SyncEvery: 1, FS: fsys}, Config{})
	r := rawDial(t, srv)

	if line := r.ask(`TABLE {"name":"rows","columns":[{"name":"a","kind":"int","notnull":true}]}`); line != "OK" {
		t.Fatalf("healthy TABLE: %q", line)
	}
	if line := r.ask(`INSERT rows {"a": 1}`); !strings.HasPrefix(line, "OK") {
		t.Fatalf("healthy insert: %q", line)
	}

	// Break the device mid-commit: plain PUB never touches the WAL, but
	// a row insert commits through it, so that's what trips the
	// fail-stop.
	boom := errors.New("injected EIO")
	fsys.FailSyncsAfter(0, boom)
	if line := r.ask(`INSERT rows {"a": 2}`); !strings.HasPrefix(line, "ERR degraded") {
		t.Fatalf("insert during fault: %q, want ERR degraded", line)
	}
	if deg, _ := eng.Degraded(); !deg {
		t.Fatal("engine not degraded after fsync fault")
	}
	// Mutating verbs are now refused at dispatch, before touching storage.
	for _, cmd := range []string{
		`PUB {"type":"a","attrs":{"v":3}}`,
		`PUBT s1 1 {"type":"a","attrs":{"v":3}}`,
		`TABLE {"name":"t","columns":[{"name":"a","kind":"int","notnull":true}]}`,
	} {
		if line := r.ask(cmd); !strings.HasPrefix(line, "ERR degraded") {
			t.Errorf("%q during degraded: %q, want ERR degraded", cmd, line)
		}
	}
	// Reads and introspection keep serving.
	if line := r.ask(`MATCH {"type":"a","attrs":{"v":9}}`); !strings.HasPrefix(line, "OK") {
		t.Errorf("MATCH during degraded: %q", line)
	}
	if line := r.ask("HEALTH"); !strings.Contains(line, "degraded=1") {
		t.Errorf("HEALTH during degraded: %q", line)
	}
	// RECOVER while the device is still broken: refused, still degraded.
	if line := r.ask("RECOVER"); !strings.HasPrefix(line, "ERR degraded") {
		t.Errorf("RECOVER on broken device: %q", line)
	}
	fsys.Heal()
	if line := r.ask("RECOVER"); line != "OK" {
		t.Fatalf("RECOVER after heal: %q", line)
	}
	if line := r.ask(`INSERT rows {"a": 3}`); !strings.HasPrefix(line, "OK") {
		t.Errorf("insert after recover: %q", line)
	}
	// RECOVER on a healthy node is a no-op OK, so operators can fire blind.
	if line := r.ask("RECOVER"); line != "OK" {
		t.Errorf("RECOVER when healthy: %q", line)
	}
}

func TestPubTDedup(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)

	if line := r.ask(`PUBT sess 1 {"type":"a","attrs":{"v":1}}`); line != "OK 0" {
		t.Fatalf("first seq: %q", line)
	}
	// Republish of an ingested sequence: acknowledged, not re-ingested.
	if line := r.ask(`PUBT sess 1 {"type":"a","attrs":{"v":1}}`); line != "OK 0 dup" {
		t.Fatalf("retry of seq 1: %q, want OK 0 dup", line)
	}
	if line := r.ask(`PUBT sess 2 {"type":"a","attrs":{"v":2}}`); line != "OK 0" {
		t.Fatalf("next seq: %q", line)
	}
	if got := eng.Ingested(); got != 2 {
		t.Errorf("ingested = %d, want 2 (dup must not re-ingest)", got)
	}
	// The ledger is server-wide: a reconnect (new conn, same session)
	// still dedupes.
	r2 := rawDial(t, srv)
	if line := r2.ask(`PUBT sess 2 {"type":"a","attrs":{"v":2}}`); line != "OK 0 dup" {
		t.Fatalf("dup across connections: %q", line)
	}
	// Malformed sequences are refused before touching the ledger.
	if line := r.ask(`PUBT sess 0 {"type":"a","attrs":{}}`); !strings.HasPrefix(line, "ERR badargs") {
		t.Errorf("seq 0: %q", line)
	}
	if line := r.ask(`PUBT sess x {"type":"a","attrs":{}}`); !strings.HasPrefix(line, "ERR badargs") {
		t.Errorf("seq x: %q", line)
	}
}

// TestLowPrioShedding arms an always-exceeded memory watermark (1 byte)
// so Overloaded() is deterministically true, then checks that only
// connections that negotiated the lowprio HELLO flag are shed.
func TestLowPrioShedding(t *testing.T) {
	_, srv := startServer(t, core.Config{ShedMemoryBytes: 1}, Config{})

	// HELLO 1 keeps the text framing; the lowprio grant is orthogonal to
	// the protocol version.
	lp := rawDial(t, srv)
	if line := lp.ask("HELLO 1 lowprio"); line != "OK 1 lowprio" {
		t.Fatalf("HELLO lowprio: %q", line)
	}
	for _, cmd := range []string{
		`PUB {"type":"a","attrs":{"v":1}}`,
		`PUBT s 1 {"type":"a","attrs":{"v":1}}`,
	} {
		if line := lp.ask(cmd); !strings.HasPrefix(line, "ERR limit") {
			t.Errorf("lowprio %q under overload: %q, want ERR limit", cmd, line)
		}
	}
	// PUBB sheds after consuming its bodies, keeping the framing intact…
	lp.send("PUBB 2")
	lp.send(`{"type":"a","attrs":{}}`)
	lp.send(`{"type":"a","attrs":{}}`)
	if line := lp.reply(); !strings.HasPrefix(line, "ERR limit") {
		t.Errorf("lowprio PUBB: %q", line)
	}
	// …so the connection is still usable.
	if line := lp.ask("PING"); line != "PONG" {
		t.Errorf("post-shed ping: %q", line)
	}

	// A normal-priority connection ingests right through the overload.
	nr := rawDial(t, srv)
	if line := nr.ask(`PUB {"type":"a","attrs":{"v":1}}`); !strings.HasPrefix(line, "OK") {
		t.Errorf("normal PUB under overload: %q", line)
	}
	if line := nr.ask("HEALTH"); !strings.Contains(line, "overloaded=1") {
		t.Errorf("HEALTH under overload: %q", line)
	}
}

// panicVerbOnce registers the test-only panicking command at most once
// for the whole test binary (the registry is global and write-once).
var panicVerbOnce sync.Once

func registerPanicVerb() {
	panicVerbOnce.Do(func() {
		register("BOOMTEST", cmdSpec{usage: "BOOMTEST", handle: func(c *conn, req *request) bool {
			panic("injected handler panic")
		}})
	})
}

// TestPanicIsolation proves one poisoned connection cannot take the
// process down: a handler panic closes that connection, increments the
// panics counter, and every other connection keeps serving.
func TestPanicIsolation(t *testing.T) {
	registerPanicVerb()
	eng, srv := startServer(t, core.Config{}, Config{})
	victim := rawDial(t, srv)
	bystander := rawDial(t, srv)

	victim.send("BOOMTEST")
	// The panicking connection is torn down, not answered.
	victim.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := victim.br.ReadString('\n'); err == nil {
		t.Fatalf("victim got a reply %q, want connection close", strings.TrimSpace(line))
	}
	// The server survives and other connections never notice.
	if line := bystander.ask("PING"); line != "PONG" {
		t.Fatalf("bystander ping after panic: %q", line)
	}
	if got := eng.Metrics.Counter("server.panics").Value(); got != 1 {
		t.Errorf("server.panics = %d, want 1", got)
	}
	if line := bystander.ask("HEALTH"); !strings.Contains(line, "panics=1") {
		t.Errorf("HEALTH after panic: %q", line)
	}
}

// TestSlowConsumerEviction fills a non-reading subscriber past
// EvictAfterDrops consecutive overflow drops and expects the server to
// cut it loose rather than carry it forever.
func TestSlowConsumerEviction(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{
		SubBuffer:       4,
		Overflow:        DropOnFull,
		EvictAfterDrops: 8,
	})
	slow := rawDial(t, srv)
	if line := slow.ask("SUB s"); line != "OK" {
		t.Fatalf("SUB: %q", line)
	}
	// Stop reading: pushes pile into the 4-slot queue, then the socket
	// buffers, then drop. Bulky events fill the kernel buffers fast.
	pub := dial(t, srv)
	payload := strings.Repeat("x", 32<<10)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if eng.Metrics.Counter("server.evicted").Value() >= 1 {
			break
		}
		if _, err := pub.Publish(event.New("e", map[string]any{"p": payload})); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if got := eng.Metrics.Counter("server.evicted").Value(); got < 1 {
		t.Fatal("slow consumer was never evicted")
	}
	// The evicted socket actually closes.
	slow.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := slow.nc.Read(buf); err != nil {
			break
		}
	}
}

// TestDrainTimeoutBoundsClose wedges a connection's outbound socket and
// checks Server.Close still returns within the configured drain bound
// instead of hanging on the stuck consumer.
func TestDrainTimeoutBoundsClose(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{
		SubBuffer:    4,
		Overflow:     DropOnFull,
		DrainTimeout: 200 * time.Millisecond,
	})
	stuck := rawDial(t, srv)
	if line := stuck.ask("SUB s"); line != "OK" {
		t.Fatalf("SUB: %q", line)
	}
	// Fill the socket so the drain flush cannot complete. HEALTH counts
	// connections with dropped pushes as slow consumers, which is the
	// signal that the subscriber's socket really is wedged.
	pub := dial(t, srv)
	payload := strings.Repeat("x", 32<<10)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		h, err := pub.Health()
		if err != nil {
			t.Fatalf("health: %v", err)
		}
		if h.SlowConsumers >= 1 {
			break
		}
		if _, err := pub.Publish(event.New("e", map[string]any{"p": payload})); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	start := time.Now()
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Server.Close hung on a stuck consumer")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Close took %v with a 200ms drain timeout", took)
	}
}

package server

import (
	"strings"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func durableServer(t *testing.T) (*core.Engine, *Server) {
	t.Helper()
	return startServer(t, core.Config{Dir: t.TempDir()}, Config{})
}

func mkTrades(t *testing.T, eng *core.Engine) {
	t.Helper()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DB.CreateTable(s); err != nil {
		t.Fatal(err)
	}
}

func insertN(t *testing.T, eng *core.Engine, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if _, err := eng.DB.Insert("trades", map[string]val.Value{
			"id": val.Int(int64(i)), "sym": val.String("A"),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplicateStreamsHistoryAndLiveTail(t *testing.T) {
	eng, srv := durableServer(t)
	mkTrades(t, eng)
	insertN(t, eng, 1, 5)

	c := dial(t, srv)
	stream, err := c.Replicate(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if stream.NextLSN != eng.DB.WAL().NextLSN() {
		t.Fatalf("stream.NextLSN = %d, want %d", stream.NextLSN, eng.DB.WAL().NextLSN())
	}
	recvRec := func() client.RawRecord {
		t.Helper()
		select {
		case r, ok := <-stream.C:
			if !ok {
				t.Fatal("stream channel closed")
			}
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for replication record")
		}
		panic("unreachable")
	}
	// History: every record from LSN 1 (CreateTable) onward, in order.
	var last uint64
	for lsn := uint64(1); lsn < stream.NextLSN; lsn++ {
		r := recvRec()
		if r.LSN != lsn {
			t.Fatalf("history record LSN = %d, want %d", r.LSN, lsn)
		}
		last = r.LSN
	}
	// Live tail: new commits arrive without re-requesting.
	insertN(t, eng, 6, 8)
	for i := 0; i < 3; i++ {
		r := recvRec()
		if r.LSN != last+1 {
			t.Fatalf("live record LSN = %d, want %d", r.LSN, last+1)
		}
		last = r.LSN
	}
	// RACK surfaces per-connection cursors on the server.
	if err := stream.Ack(last + 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cursors := srv.ReplicaCursors()
		if len(cursors) == 1 {
			for _, cur := range cursors {
				if cur == last+1 {
					goto acked
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ReplicaCursors = %v, want one cursor at %d", cursors, last+1)
		}
		time.Sleep(2 * time.Millisecond)
	}
acked:
	// Detach: the sink goes away and cursors empty out.
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(srv.ReplicaCursors()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica cursor survived stream close")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicateResumesFromLSN(t *testing.T) {
	eng, srv := durableServer(t)
	mkTrades(t, eng)
	insertN(t, eng, 1, 9)
	next := eng.DB.WAL().NextLSN()

	c := dial(t, srv)
	stream, err := c.Replicate(next-3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for want := next - 3; want < next; want++ {
		select {
		case r := <-stream.C:
			if r.LSN != want {
				t.Fatalf("resumed record LSN = %d, want %d", r.LSN, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out on resumed stream")
		}
	}
}

func TestReplicateRefusals(t *testing.T) {
	t.Run("notdurable", func(t *testing.T) {
		_, srv := startServer(t, core.Config{}, Config{})
		c := dial(t, srv)
		_, err := c.Replicate(0, 0)
		var serr *client.Error
		if !asClientError(err, &serr) || serr.Code != "notdurable" {
			t.Fatalf("Replicate on volatile server = %v, want notdurable", err)
		}
	})
	t.Run("badargs", func(t *testing.T) {
		_, srv := durableServer(t)
		rc := rawDial(t, srv)
		rc.send("REPLICATE nope")
		if reply := rc.readLine(); !strings.HasPrefix(reply, "ERR badargs") {
			t.Fatalf("REPLICATE nope → %q, want ERR badargs", reply)
		}
	})
	t.Run("conflict-beyond-end", func(t *testing.T) {
		eng, srv := durableServer(t)
		c := dial(t, srv)
		_, err := c.Replicate(eng.DB.WAL().NextLSN()+100, 0)
		var serr *client.Error
		if !asClientError(err, &serr) || serr.Code != "conflict" {
			t.Fatalf("Replicate past log end = %v, want conflict", err)
		}
	})
	t.Run("dup-stream", func(t *testing.T) {
		_, srv := durableServer(t)
		rc := rawDial(t, srv)
		rc.send("REPLICATE 1")
		if reply := rc.readLine(); !strings.HasPrefix(reply, "OK ") {
			t.Fatalf("first REPLICATE → %q", reply)
		}
		rc.send("REPLICATE 1")
		deadline := time.Now().Add(5 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("no ERR dup for second REPLICATE")
			}
			reply := rc.readLine()
			if strings.HasPrefix(reply, "REPL ") {
				continue // interleaved stream records are fine
			}
			if !strings.HasPrefix(reply, "ERR dup") {
				t.Fatalf("second REPLICATE → %q, want ERR dup", reply)
			}
			break
		}
	})
}

func asClientError(err error, target **client.Error) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*client.Error)
	if ok {
		*target = e
	}
	return ok
}

// TestReadOnlyFollowerGating drives every mutating verb against a
// read-only node and every read verb that must keep working.
func TestReadOnlyFollowerGating(t *testing.T) {
	eng, srv := durableServer(t)
	mkTrades(t, eng)
	insertN(t, eng, 1, 3)
	eng.SetReadOnly(true)

	rc := rawDial(t, srv)
	mutating := []string{
		`PUB {"type":"x","attrs":{}}`,
		// A refused PUBB still takes its bodies off the wire: the event
		// must not come back as an unknown command.
		"PUBB 1\n" + `{"type":"x","attrs":{}}`,
		"QSUB q auto",
		"CONSUME q 1",
		"ACK q 1-1",
		"NACK q 1-1 0",
		`TABLE {"name":"t2","columns":[{"name":"a","kind":"int"}]}`,
		`INSERT trades {"id":99,"sym":"Z"}`,
		`UPDATE trades {"where":{"id":1},"set":{"sym":"Q"}}`,
		`DELETE trades {"where":{"id":1}}`,
		`TRIG t1 {"table":"trades","ops":["insert"]}`,
		"UNTRIG t1",
		`WATCH w1 {"query":{"table":"trades"}}`,
		"UNWATCH w1",
		`PATTERN p1 {"steps":[{"alias":"a","type":"x"}]}`,
		"UNPATTERN p1",
	}
	for _, cmd := range mutating {
		rc.send(cmd)
		reply := rc.readLine()
		if !strings.HasPrefix(reply, "ERR readonly") {
			t.Errorf("%q on follower → %q, want ERR readonly", cmd, reply)
		}
	}

	// Reads must keep flowing on a follower.
	rc.send("PING")
	if reply := rc.readLine(); reply != "PONG" {
		t.Fatalf("PING on follower → %q", reply)
	}
	rc.send(`SELECT {"table":"trades"}`)
	if reply := rc.readLine(); !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("SELECT on follower → %q", reply)
	}
	rc.send("SUB s1 sym = 'A'")
	if reply := rc.readLine(); reply != "OK" {
		t.Fatalf("SUB on follower → %q", reply)
	}
	rc.send(`MATCH {"type":"x","attrs":{"sym":"A"}}`)
	if reply := rc.readLine(); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("MATCH on follower → %q", reply)
	}
	rc.send("ROLE")
	if reply := rc.readLine(); reply != "OK follower" {
		t.Fatalf("ROLE on follower → %q", reply)
	}
	// QSTATS must not attach (attaching writes); absence is noqueue.
	rc.send("QSTATS someq")
	if reply := rc.readLine(); !strings.HasPrefix(reply, "ERR noqueue") {
		t.Fatalf("QSTATS on follower → %q, want ERR noqueue", reply)
	}

	// Back to leader: writes work again.
	eng.SetReadOnly(false)
	rc.send(`INSERT trades {"id":99,"sym":"Z"}`)
	if reply := rc.readLine(); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("INSERT after re-enable → %q", reply)
	}
}

func TestPromoteAndRoleVerbs(t *testing.T) {
	t.Run("leader-without-hook", func(t *testing.T) {
		_, srv := durableServer(t)
		c := dial(t, srv)
		role, err := c.Role()
		if err != nil || role != "leader" {
			t.Fatalf("Role = (%q, %v), want leader", role, err)
		}
		// PROMOTE on a node that is already a leader is a no-op.
		role, err = c.Promote()
		if err != nil || role != "leader" {
			t.Fatalf("Promote = (%q, %v), want leader", role, err)
		}
	})
	t.Run("follower-without-hook", func(t *testing.T) {
		eng, srv := durableServer(t)
		eng.SetReadOnly(true)
		c := dial(t, srv)
		if _, err := c.Promote(); err == nil {
			t.Fatal("PROMOTE without a hook on a follower should fail")
		}
	})
	t.Run("with-hook", func(t *testing.T) {
		eng, err := core.Open(core.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		eng.SetReadOnly(true)
		called := false
		srv, err := StartConfig(eng, "127.0.0.1:0", Config{
			Promote: func() (string, error) {
				called = true
				eng.SetReadOnly(false)
				return "leader", nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := dial(t, srv)
		role, err := c.Promote()
		if err != nil || role != "leader" || !called {
			t.Fatalf("Promote = (%q, %v), called=%v", role, err, called)
		}
		if got, _ := c.Role(); got != "leader" {
			t.Fatalf("Role after promote = %q", got)
		}
	})
}

func TestDialRequireLeaderRoutesToLeader(t *testing.T) {
	// A follower and a leader: RequireLeader must skip the follower.
	feng, fsrv := durableServer(t)
	feng.SetReadOnly(true)
	_, lsrv := durableServer(t)

	c, err := client.Dial(fsrv.Addr(), client.WithFallbacks(lsrv.Addr()), client.RequireLeader())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if role, _ := c.Role(); role != "leader" {
		t.Fatalf("RequireLeader landed on a %q", role)
	}

	// With only followers available, Dial fails rather than returning a
	// node that refuses writes.
	if _, err := client.Dial(fsrv.Addr(), client.RequireLeader()); err == nil {
		t.Fatal("RequireLeader returned a follower")
	}
}

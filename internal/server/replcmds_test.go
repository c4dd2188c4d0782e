package server

import (
	"bytes"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/repl"
	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/vfs"
	"eventdb/internal/wal"
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

// replicate sends REPLICATE <from> and returns the next LSN of its
// "OK <next>" reply.
func (r *raw) replicate(from uint64) uint64 {
	r.t.Helper()
	reply := r.ask("REPLICATE " + strconv.FormatUint(from, 10))
	next, err := strconv.ParseUint(strings.TrimPrefix(reply, "OK "), 10, 64)
	if !strings.HasPrefix(reply, "OK ") || err != nil {
		r.t.Fatalf("REPLICATE %d → %q, want OK <next-lsn>", from, reply)
	}
	return next
}

// record reads the stream's next line and decodes it with repl's
// codec, the one the follower uses.
func (r *raw) record() wal.Record {
	r.t.Helper()
	line := r.readLine()
	rest, ok := strings.CutPrefix(line, "REPL ")
	if !ok {
		r.t.Fatalf("stream line = %q, want a REPL record", line)
	}
	rec, err := repl.ParseRecord(rest)
	if err != nil {
		r.t.Fatal(err)
	}
	return rec
}

// sameAsLeader fails unless each of got, in LSN order from got[0],
// has the type and bytes of the leader's record at its LSN, read with
// storage.DB.Follow as the stream's sink reads it.
func sameAsLeader(t *testing.T, eng *core.Engine, got []wal.Record) {
	t.Helper()
	errDone := errors.New("read enough")
	i := 0
	err := eng.DB.Follow(got[0].LSN, make(chan struct{}), func(recs []wal.Record) error {
		for _, want := range recs {
			r := got[i]
			if r.LSN != want.LSN || r.Type != want.Type || !bytes.Equal(r.Data, want.Data) {
				t.Fatalf("streamed record (lsn %d, type %d, %x), leader's (lsn %d, type %d, %x)",
					r.LSN, r.Type, r.Data, want.LSN, want.Type, want.Data)
			}
			if i++; i == len(got) {
				return errDone
			}
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("reading the leader's log: %v", err)
	}
}

func TestReplicateStreamsHistoryAndLiveTail(t *testing.T) {
	eng, srv := durableServer(t)
	mkTrades(t, eng)
	insertN(t, eng, 1, 5)

	rc := rawDial(t, srv)
	next := rc.replicate(0)
	if next != eng.DB.WAL().NextLSN() {
		t.Fatalf("OK %d, want the WAL's next LSN %d", next, eng.DB.WAL().NextLSN())
	}
	// History: every record from LSN 1 (CreateTable) onward, in order.
	var got []wal.Record
	for lsn := uint64(1); lsn < next; lsn++ {
		r := rc.record()
		if r.LSN != lsn {
			t.Fatalf("history record LSN = %d, want %d", r.LSN, lsn)
		}
		got = append(got, r)
	}
	// Live tail: new commits arrive without re-requesting.
	insertN(t, eng, 6, 8)
	last := next - 1
	for i := 0; i < 3; i++ {
		r := rc.record()
		if r.LSN != last+1 {
			t.Fatalf("live record LSN = %d, want %d", r.LSN, last+1)
		}
		last = r.LSN
		got = append(got, r)
	}
	sameAsLeader(t, eng, got)
	// RACK stores the connection's cursor before it replies.
	if reply := rc.ask("RACK " + strconv.FormatUint(last+1, 10)); reply != "OK" {
		t.Fatalf("RACK → %q", reply)
	}
	cursors := srv.ReplicaCursors()
	if len(cursors) != 1 {
		t.Fatalf("ReplicaCursors = %v, want one cursor at %d", cursors, last+1)
	}
	for _, cur := range cursors {
		if cur != last+1 {
			t.Fatalf("ReplicaCursors = %v, want one cursor at %d", cursors, last+1)
		}
	}
	// Detach: UNSUB takes the sink away before it replies, and the
	// cursors empty out.
	if reply := rc.ask("UNSUB repl"); reply != "OK" {
		t.Fatalf("UNSUB repl → %q", reply)
	}
	if cursors := srv.ReplicaCursors(); len(cursors) != 0 {
		t.Fatalf("ReplicaCursors after UNSUB repl = %v, want none", cursors)
	}
}

func TestReplicateResumesFromLSN(t *testing.T) {
	eng, srv := durableServer(t)
	mkTrades(t, eng)
	insertN(t, eng, 1, 9)
	next := eng.DB.WAL().NextLSN()

	rc := rawDial(t, srv)
	rc.replicate(next - 3)
	var got []wal.Record
	for want := next - 3; want < next; want++ {
		r := rc.record()
		if r.LSN != want {
			t.Fatalf("resumed record LSN = %d, want %d", r.LSN, want)
		}
		got = append(got, r)
	}
	sameAsLeader(t, eng, got)
}

func TestReplicateRefusals(t *testing.T) {
	t.Run("notdurable", func(t *testing.T) {
		_, srv := startServer(t, core.Config{}, Config{})
		rc := rawDial(t, srv)
		if reply := rc.ask("REPLICATE 0"); !strings.HasPrefix(reply, "ERR notdurable") {
			t.Fatalf("REPLICATE on volatile server → %q, want ERR notdurable", reply)
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
		rc := rawDial(t, srv)
		req := "REPLICATE " + strconv.FormatUint(eng.DB.WAL().NextLSN()+100, 10)
		if reply := rc.ask(req); !strings.HasPrefix(reply, "ERR conflict") {
			t.Fatalf("REPLICATE past log end → %q, want ERR conflict", reply)
		}
	})
	t.Run("dup-stream", func(t *testing.T) {
		_, srv := durableServer(t)
		rc := rawDial(t, srv)
		rc.replicate(1)
		// Interleaved stream records are fine.
		if reply := rc.ask("REPLICATE 1"); !strings.HasPrefix(reply, "ERR dup") {
			t.Fatalf("second REPLICATE → %q, want ERR dup", reply)
		}
	})
}

// segOpenFault is the real filesystem, except that once armed its Open
// of a WAL segment fails.
type segOpenFault struct {
	vfs.OS
	armed atomic.Bool
}

func (f *segOpenFault) Open(name string) (vfs.File, error) {
	base := filepath.Base(name)
	if f.armed.Load() && strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".seg") {
		return nil, errors.New("injected open fault")
	}
	return f.OS.Open(name)
}

// TestReplicateStreamFailsOnSegmentOpenFault reads the stream's
// segments through the engine's FS: when opening one fails, the stream
// ends with an ERR line and its sink leaves the connection.
func TestReplicateStreamFailsOnSegmentOpenFault(t *testing.T) {
	fsys := &segOpenFault{}
	eng, srv := startServer(t, core.Config{Dir: t.TempDir(), FS: fsys}, Config{})
	mkTrades(t, eng)
	insertN(t, eng, 1, 3)
	fsys.armed.Store(true)
	rc := rawDial(t, srv)
	rc.send("REPLICATE 1")
	if reply := rc.readLine(); !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("REPLICATE 1 → %q", reply)
	}
	line := rc.readLine()
	if !strings.HasPrefix(line, "ERR internal") || !strings.Contains(line, "replication stream failed") {
		t.Fatalf("stream line under a failing Open = %q, want ERR internal … replication stream failed", line)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.ReplicaCursors()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed replication stream kept its sink")
		}
		time.Sleep(2 * time.Millisecond)
	}
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

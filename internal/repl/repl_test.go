package repl_test

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/pubsub"
	"eventdb/internal/repl"
	"eventdb/internal/server"
	"eventdb/internal/storage"
	"eventdb/internal/testnet"
	"eventdb/internal/val"
	"eventdb/internal/wal"
)

func TestCodecRoundTrip(t *testing.T) {
	// Binary payloads — newlines included — must survive the line framing.
	rec := wal.Record{LSN: 42, Type: 7, Data: []byte("line1\nline2\x00\xFF")}
	line, err := repl.AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Fatalf("encoded line contains a newline: %q", line)
	}
	if !bytes.HasPrefix(line, []byte("REPL 42 ")) {
		t.Fatalf("encoded line = %q", line)
	}
	got, err := repl.ParseRecord(string(line[len("REPL "):]))
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != rec.LSN || got.Type != rec.Type || !bytes.Equal(got.Data, rec.Data) {
		t.Fatalf("round trip = %+v, want %+v", got, rec)
	}
	if _, err := repl.ParseRecord("notanumber {}"); err == nil {
		t.Error("bad lsn accepted")
	}
	if _, err := repl.ParseRecord("7 not-json"); err == nil {
		t.Error("bad body accepted")
	}
}

// startLeader boots a durable engine served over TCP.
func startLeader(t *testing.T) (*core.Engine, *server.Server) {
	t.Helper()
	eng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, srv
}

// followerEngine boots the durable engine a follower applies into.
func followerEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func tradesSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func insertTrade(t *testing.T, eng *core.Engine, id int, sym string) {
	t.Helper()
	_, err := eng.DB.Insert("trades", map[string]val.Value{
		"id": val.Int(int64(id)), "sym": val.String(sym),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFollowerReplicatesCommitsAndDDL(t *testing.T) {
	leader, srv := startLeader(t)
	if err := leader.DB.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	insertTrade(t, leader, 1, "A")

	feng := followerEngine(t)
	// Follower-side observers see replicated changes as db.* events.
	var fanouts atomic.Int64
	if err := feng.Subscribe("watch", "test", "table = 'trades'", func(pubsub.Delivery) {
		fanouts.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := repl.Start(repl.Config{Addr: srv.Addr(), Engine: feng, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Records committed before and after the stream started both land.
	insertTrade(t, leader, 2, "B")
	insertTrade(t, leader, 3, "C")
	target := leader.DB.WAL().NextLSN()
	if !f.WaitCursor(target, 5*time.Second) {
		t.Fatalf("follower cursor %d never reached %d", f.Cursor(), target)
	}
	tbl, ok := feng.DB.Table("trades")
	if !ok {
		t.Fatal("replicated table missing on follower")
	}
	if tbl.Len() != 3 {
		t.Fatalf("follower rows = %d, want 3", tbl.Len())
	}
	if !feng.ReadOnly() {
		t.Fatal("follower engine is not read-only")
	}
	// DDL appended after the stream is live arrives via the poll path.
	audit, err := storage.NewSchema("audit", []storage.Column{{Name: "id", Kind: val.KindInt}}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.DB.CreateTable(audit); err != nil {
		t.Fatal(err)
	}
	if !f.WaitCursor(leader.DB.WAL().NextLSN(), 5*time.Second) {
		t.Fatalf("follower cursor stalled at %d after DDL", f.Cursor())
	}
	if _, ok := feng.DB.Table("audit"); !ok {
		t.Fatal("table created after the stream went live is missing on the follower")
	}
	deadline := time.Now().Add(5 * time.Second)
	for fanouts.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := fanouts.Load(); n != 3 {
		t.Fatalf("follower fan-out events = %d, want 3", n)
	}
}

// TestFollowerResumesAfterMidStreamKill severs the replication stream
// at an exact record boundary on the first connection, then lets the
// follower reconnect unimpeded: the resume must pick up from the
// cursor with no gaps and no double-applies.
func TestFollowerResumesAfterMidStreamKill(t *testing.T) {
	leader, srv := startLeader(t)
	if err := leader.DB.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	const rows = 20
	for i := 1; i <= rows; i++ {
		insertTrade(t, leader, i, "S")
	}
	target := leader.DB.WAL().NextLSN()

	feng := followerEngine(t)
	var dials atomic.Int64
	f, err := repl.Start(repl.Config{
		Addr:   srv.Addr(),
		Engine: feng,
		Logf:   t.Logf,
		Dial: func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				// First connection dies exactly before record 10 arrives.
				fc := testnet.Wrap(nc)
				fc.KillAtLSN("REPL", 10)
				return fc, nil
			}
			return nc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if !f.WaitCursor(target, 10*time.Second) {
		t.Fatalf("follower cursor %d never reached %d after reconnect", f.Cursor(), target)
	}
	if n := dials.Load(); n < 2 {
		t.Fatalf("follower reconnected %d times, want >= 2 (kill did not fire?)", n)
	}
	tbl, ok := feng.DB.Table("trades")
	if !ok || tbl.Len() != rows {
		t.Fatalf("follower rows after resume = %d, want %d", tbl.Len(), rows)
	}
	// Applied counts every record exactly once across both connections.
	if a := f.Applied(); a != target-1 {
		t.Fatalf("applied = %d records, want %d (gap or double-apply)", a, target-1)
	}
	if got := feng.DB.WAL().NextLSN(); got != target {
		t.Fatalf("follower NextLSN = %d, want %d", got, target)
	}
}

func TestPromoteEnablesWrites(t *testing.T) {
	leader, srv := startLeader(t)
	if err := leader.DB.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	insertTrade(t, leader, 1, "A")

	feng := followerEngine(t)
	promoted := false
	f, err := repl.Start(repl.Config{
		Addr: srv.Addr(), Engine: feng, Logf: t.Logf,
		OnPromote: func() { promoted = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.WaitCursor(leader.DB.WAL().NextLSN(), 5*time.Second) {
		t.Fatal("follower never caught up")
	}
	role, err := f.Promote()
	if err != nil || role != "leader" {
		t.Fatalf("Promote = (%q, %v)", role, err)
	}
	if !promoted || !f.Promoted() {
		t.Fatal("OnPromote did not run")
	}
	if feng.ReadOnly() {
		t.Fatal("engine still read-only after promote")
	}
	// The promoted node accepts writes, continuing the LSN space.
	insertTrade(t, feng, 2, "B")
	tbl, _ := feng.DB.Table("trades")
	if tbl.Len() != 2 {
		t.Fatalf("rows after promoted write = %d, want 2", tbl.Len())
	}
	// Idempotent.
	if _, err := f.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
}

func TestAutoPromoteOnLeaderLoss(t *testing.T) {
	leader, srv := startLeader(t)
	if err := leader.DB.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	feng := followerEngine(t)
	f, err := repl.Start(repl.Config{
		Addr:             srv.Addr(),
		Engine:           feng,
		Logf:             t.Logf,
		ReconnectMin:     10 * time.Millisecond,
		ReconnectMax:     50 * time.Millisecond,
		AutoPromoteAfter: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.WaitCursor(leader.DB.WAL().NextLSN(), 5*time.Second) {
		t.Fatal("follower never caught up")
	}
	srv.Close() // leader goes dark

	deadline := time.Now().Add(10 * time.Second)
	for !f.Promoted() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !f.Promoted() {
		t.Fatal("follower never auto-promoted after leader loss")
	}
	if feng.ReadOnly() {
		t.Fatal("auto-promoted engine still read-only")
	}
}

func TestStartRequiresDurableEngine(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := repl.Start(repl.Config{Addr: "127.0.0.1:1", Engine: eng}); err == nil ||
		!strings.Contains(err.Error(), "durable") {
		t.Fatalf("Start on volatile engine = %v, want durable error", err)
	}
}

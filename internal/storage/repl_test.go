package storage

import (
	"errors"
	"strings"
	"testing"

	"eventdb/internal/val"
	"eventdb/internal/wal"
)

func TestReadOnlyGatesMutations(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	db.SetReadOnly(true)
	if !db.ReadOnly() {
		t.Fatal("ReadOnly not reported")
	}
	if _, err := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on read-only db = %v, want ErrReadOnly", err)
	}
	if err := db.CreateTable(mustSchema(t, "other", []Column{{Name: "a", Kind: val.KindInt}})); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CreateTable on read-only db = %v, want ErrReadOnly", err)
	}
	// Reads stay open.
	if _, ok := db.Table("trades"); !ok {
		t.Fatal("read lost under read-only gate")
	}
	db.SetReadOnly(false)
	if _, err := db.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0)); err != nil {
		t.Fatalf("Insert after re-enable: %v", err)
	}
}

// TestApplyReplicatedMirrorsLeader replays one durable database's WAL
// into a second, record by record — the follower's apply path — and
// verifies the follower converges to the same tables, rows,
// sequence numbers, and LSN space, with commit hooks firing per commit.
func TestApplyReplicatedMirrorsLeader(t *testing.T) {
	leader, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	var id2 RowID
	for i := 1; i <= 9; i++ {
		rid, err := leader.Insert("trades", vmap("id", i, "sym", "A", "price", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			id2 = rid
		}
	}
	if err := leader.UpdateRow("trades", id2, vmap("price", 42.0)); err != nil {
		t.Fatal(err)
	}
	if err := leader.DeleteRow("trades", id2+1); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.SetReadOnly(true)
	var hookLSNs []uint64
	remove := follower.OnCommit(func(info *CommitInfo) {
		hookLSNs = append(hookLSNs, info.LSN)
	})
	defer remove()

	commits := 0
	if err := leader.WAL().Replay(0, func(r wal.Record) error {
		if r.Type == recCommit {
			commits++
		}
		return follower.ApplyReplicated(r)
	}); err != nil {
		t.Fatalf("apply replicated stream: %v", err)
	}

	if got, want := follower.WAL().NextLSN(), leader.WAL().NextLSN(); got != want {
		t.Fatalf("follower NextLSN = %d, leader = %d (LSN spaces must mirror)", got, want)
	}
	tbl, ok := follower.Table("trades")
	if !ok {
		t.Fatal("replicated table missing")
	}
	if tbl.Len() != 8 {
		t.Fatalf("replicated rows = %d, want 8", tbl.Len())
	}
	row, _, ok := tbl.GetByPK(val.Int(2))
	if !ok {
		t.Fatal("replicated row 2 missing")
	}
	if p, _ := row[2].AsFloat(); p != 42.0 {
		t.Fatalf("replicated update lost: price = %v", p)
	}
	if _, _, ok := tbl.GetByPK(val.Int(3)); ok {
		t.Fatal("replicated delete lost")
	}
	if follower.Seq() != leader.Seq() {
		t.Fatalf("follower seq = %d, leader = %d", follower.Seq(), leader.Seq())
	}
	if len(hookLSNs) != commits {
		t.Fatalf("commit hooks fired %d times for %d commit records", len(hookLSNs), commits)
	}
	// Read-only stayed on the whole time: direct writes still refused.
	if _, err := follower.Insert("trades", vmap("id", 99, "sym", "Z", "price", 0.0)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on follower = %v, want ErrReadOnly", err)
	}
}

// TestIndexRecordRefused holds the reserved WAL record kind 3 (a
// secondary-index definition) to a refusal: recovery fails on it and a
// follower will not log it, rather than either dropping its UNIQUE
// constraint without a word.
func TestIndexRecordRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Type: recCreateIndex, Data: []byte("\x06trades\x06by_sym\x00\x01\x01\x03sym")}
	if rec.LSN, err = w.Append(rec.Type, rec.Data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Dir: dir}); !errors.Is(err, errIndexRecord) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open over a kind-3 record = %v, want %v", err, errIndexRecord)
	}

	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyReplicated(wal.Record{LSN: 1, Type: recCreateTable, Data: encodeSchema(nil, tradesSchema(t))}); err != nil {
		t.Fatal(err)
	}
	rec.LSN = 2
	if err := follower.ApplyReplicated(rec); !errors.Is(err, errIndexRecord) {
		t.Fatalf("ApplyReplicated(kind 3) = %v, want %v", err, errIndexRecord)
	}
	if next := follower.WAL().NextLSN(); next != 2 {
		t.Fatalf("follower NextLSN = %d after the refusal, want 2: the record must not be logged", next)
	}
}

func TestApplyReplicatedDetectsDivergence(t *testing.T) {
	leader, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.CreateTable(tradesSchema(t))
	leader.Insert("trades", vmap("id", 1, "sym", "A", "price", 1.0))
	var recs []wal.Record
	leader.WAL().Replay(0, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if len(recs) < 2 {
		t.Fatalf("want >= 2 records, got %d", len(recs))
	}

	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Applying record 2 first lands on local LSN 1: divergence.
	err = follower.ApplyReplicated(recs[1])
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("out-of-order apply = %v, want divergence error", err)
	}
}

func TestApplyReplicatedRequiresDurable(t *testing.T) {
	db := openVolatile(t)
	err := db.ApplyReplicated(wal.Record{LSN: 1, Type: recCommit})
	if err == nil {
		t.Fatal("volatile ApplyReplicated should fail")
	}
}

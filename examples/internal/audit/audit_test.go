package audit

import (
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/storage"
)

func db(t *testing.T, dir string) *storage.DB {
	t.Helper()
	d, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrailRecordAndQuery(t *testing.T) {
	d := db(t, "")
	defer d.Close()
	tr, err := NewTrail(d, "audit")
	if err != nil {
		t.Fatal(err)
	}
	tr.Record("alice", "enqueue", "q_in", "msg 1")
	tr.Record("bob", "dequeue", "q_in", "msg 1")
	tr.Record("alice", "subscribe", "topic/x", "")

	all, err := tr.Entries("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("entries = %d", len(all))
	}
	// Ordered by sequence.
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Errorf("entries out of order: %v", all)
		}
	}
	byAlice, _ := tr.Entries("alice", "")
	if len(byAlice) != 2 {
		t.Errorf("alice entries = %d", len(byAlice))
	}
	byQueue, _ := tr.Entries("", "q_in")
	if len(byQueue) != 2 {
		t.Errorf("q_in entries = %d", len(byQueue))
	}
	both, _ := tr.Entries("alice", "q_in")
	if len(both) != 1 || both[0].Action != "enqueue" {
		t.Errorf("combined filter = %v", both)
	}
}

func TestTrailSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := db(t, dir)
	tr, _ := NewTrail(d, "audit")
	tr.Record("alice", "x", "r", "")
	tr.Record("alice", "y", "r", "")
	d.Close()

	d2 := db(t, dir)
	defer d2.Close()
	tr2, err := NewTrail(d2, "audit")
	if err != nil {
		t.Fatal(err)
	}
	// Sequence resumes without collision.
	if err := tr2.Record("bob", "z", "r", ""); err != nil {
		t.Fatal(err)
	}
	all, _ := tr2.Entries("", "")
	if len(all) != 3 || all[2].Principal != "bob" {
		t.Errorf("entries after restart = %v", all)
	}
}

func TestLineage(t *testing.T) {
	d := db(t, "")
	defer d.Close()
	ln, err := NewLineage(d, "lineage")
	if err != nil {
		t.Fatal(err)
	}
	// raw → captured → matched → notified
	raw, captured, matched, notified := event.NextID(), event.NextID(), event.NextID(), event.NextID()
	ln.Link(raw, captured, "capture")
	ln.Link(captured, matched, "rules")
	ln.Link(matched, notified, "dispatch")

	anc, err := ln.Ancestors(notified)
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 3 {
		t.Fatalf("ancestors = %v", anc)
	}
	if anc[0] != matched || anc[1] != captured || anc[2] != raw {
		t.Errorf("ancestor order = %v", anc)
	}
	// No ancestors for a root.
	anc, _ = ln.Ancestors(raw)
	if len(anc) != 0 {
		t.Errorf("root ancestors = %v", anc)
	}
	// Diamond: two parents.
	merged := event.NextID()
	ln.Link(matched, merged, "join")
	ln.Link(captured, merged, "join")
	anc, _ = ln.Ancestors(merged)
	if len(anc) != 3 {
		t.Errorf("diamond ancestors = %v", anc)
	}
}

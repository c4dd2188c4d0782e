package main

import (
	"testing"

	"eventdb"
	"eventdb/examples/internal/security"
)

// TestSecurityAndAudit checks the example's composition of guard,
// trail and engine: nothing is allowed until granted, and every
// decision, either way, is an entry in the trail.
func TestSecurityAndAudit(t *testing.T) {
	base, err := eventdb.Open(eventdb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	e, err := secure(base, "audit")
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	h := func(eventdb.Delivery) { delivered++ }
	// Deny by default.
	ev := eventdb.NewEvent("alarm", map[string]any{"sev": 1})
	if err := e.ingestAs("mallory", ev); err == nil {
		t.Fatal("unauthorized ingest accepted")
	}
	if err := e.subscribeAs("mallory", "s", "", h); err == nil {
		t.Fatal("unauthorized subscribe accepted")
	}
	// Grant and retry.
	e.guard.Grant("alice", security.ActPublish, "events/alarm")
	e.guard.Grant("alice", security.ActSubscribe, "subscriptions")
	if err := e.subscribeAs("alice", "s", "", h); err != nil {
		t.Fatal(err)
	}
	if err := e.ingestAs("alice", ev); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1: the denied publish must not reach the engine, the granted one must", delivered)
	}
	// Audit trail recorded both denials and grants.
	entries, err := e.trail.Entries("", "")
	if err != nil {
		t.Fatal(err)
	}
	actions := map[string]int{}
	for _, en := range entries {
		actions[en.Action]++
	}
	if len(entries) != 4 || actions["publish.denied"] != 1 || actions["subscribe.denied"] != 1 ||
		actions["publish"] != 1 || actions["subscribe"] != 1 {
		t.Errorf("audit actions = %v", actions)
	}
}

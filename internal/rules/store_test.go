package rules

import (
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/storage"
)

func storeFixture(t *testing.T) (*storage.DB, *Store, *Engine) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := NewStore(db, "rules")
	if err != nil {
		t.Fatal(err)
	}
	return db, s, NewEngine()
}

func TestStoreSaveLoad(t *testing.T) {
	_, s, e := storeFixture(t)
	var fired int
	s.RegisterAction("count", func(*event.Event, *Rule) { fired++ })
	if err := s.Save("hot", "temp > 30", 5, "count"); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("acme", "sym = 'ACME'", 1, "count"); err != nil {
		t.Fatal(err)
	}
	unknown, err := s.LoadInto(e)
	if err != nil || len(unknown) != 0 {
		t.Fatalf("LoadInto: %v %v", unknown, err)
	}
	if e.Len() != 2 {
		t.Fatalf("engine rules = %d", e.Len())
	}
	n, err := e.NewMatcher().Eval(mkEvent(map[string]any{"temp": 40}))
	if err != nil || n != 1 || fired != 1 {
		t.Errorf("eval: n=%d fired=%d err=%v", n, fired, err)
	}
	// Overwrite keeps one row per name.
	if err := s.Save("hot", "temp > 50", 5, "count"); err != nil {
		t.Fatal(err)
	}
	s.LoadInto(e)
	n, _ = e.NewMatcher().Eval(mkEvent(map[string]any{"temp": 40}))
	if n != 0 {
		t.Errorf("updated condition not applied: n=%d", n)
	}
}

func TestStoreUnknownAction(t *testing.T) {
	_, s, e := storeFixture(t)
	s.Save("x", "a = 1", 0, "missing")
	unknown, err := s.LoadInto(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 1 || unknown[0] != "x" {
		t.Errorf("unknown = %v", unknown)
	}
	// Rule still matches (no-op action).
	n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"a": 1}))
	if n != 1 {
		t.Errorf("n = %d", n)
	}
}

func TestStoreDeleteAndDisable(t *testing.T) {
	_, s, e := storeFixture(t)
	s.RegisterAction("nop", func(*event.Event, *Rule) {})
	s.Save("a", "x = 1", 0, "nop")
	s.Save("b", "x = 1", 0, "nop")
	if err := s.SetEnabled("b", false); err != nil {
		t.Fatal(err)
	}
	s.LoadInto(e)
	if e.Len() != 1 {
		t.Errorf("disabled rule loaded: %d", e.Len())
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err == nil {
		t.Error("double delete accepted")
	}
	if err := s.SetEnabled("nope", true); err == nil {
		t.Error("enable of missing rule accepted")
	}
}

func TestStoreSyncLiveReload(t *testing.T) {
	_, s, e := storeFixture(t)
	s.RegisterAction("nop", func(*event.Event, *Rule) {})
	detach := s.Sync(e)
	defer detach()

	// Insert through the store → engine picks it up via commit hook.
	s.Save("live", "x = 7", 0, "nop")
	n, err := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 7}))
	if err != nil || n != 1 {
		t.Fatalf("live rule not applied: n=%d err=%v", n, err)
	}
	// Update.
	s.Save("live", "x = 8", 0, "nop")
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 7})); n != 0 {
		t.Error("stale condition still active")
	}
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 8})); n != 1 {
		t.Error("updated condition not active")
	}
	// Disable removes from engine.
	s.SetEnabled("live", false)
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 8})); n != 0 {
		t.Error("disabled rule still active")
	}
	// Re-enable restores.
	s.SetEnabled("live", true)
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 8})); n != 1 {
		t.Error("re-enabled rule not active")
	}
	// Delete removes.
	s.Delete("live")
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 8})); n != 0 {
		t.Error("deleted rule still active")
	}
	// Detach stops syncing.
	detach()
	s.Save("late", "x = 9", 0, "nop")
	if n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 9})); n != 0 {
		t.Error("rule added after detach became active")
	}
}

func TestStoreDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(db, "rules")
	if err != nil {
		t.Fatal(err)
	}
	s.Save("persist", "x > 0", 3, "nop")
	db.Close()

	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := NewStore(db2, "rules")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	s2.RegisterAction("nop", func(*event.Event, *Rule) {})
	if _, err := s2.LoadInto(e); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Errorf("recovered rules = %d", e.Len())
	}
	n, _ := e.NewMatcher().Eval(mkEvent(map[string]any{"x": 5}))
	if n != 1 {
		t.Errorf("recovered rule does not match")
	}
}

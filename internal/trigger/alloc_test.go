package trigger

import (
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// TestAllocsAfterCommit pins a captured INSERT's commit-hook cost. A
// commit to a table no AFTER trigger watches allocates nothing, however
// many watch other tables; through one AFTER trigger with the default
// action it allocates the change event and what it is built of, and no
// per-commit list of the triggers to fire.
func TestAllocsAfterCommit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	db, _, _ := setup(t)
	other, err := storage.NewSchema("other", []storage.Column{{Name: "x", Kind: val.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	m := NewManager(db, func(*event.Event) { emitted++ })
	t.Cleanup(m.Close)
	for _, name := range []string{"o1", "o2"} {
		if _, err := m.Register(Def{Name: name, Table: "other", Timing: After}); err != nil {
			t.Fatal(err)
		}
	}
	ci := &storage.CommitInfo{Changes: []storage.Change{{
		Table: "readings", Kind: storage.Insert, ID: 1,
		New: storage.Row{val.String("m1"), val.Float(5)},
	}}}
	if n := testing.AllocsPerRun(1000, func() { m.afterCommit(ci) }); n != 0 {
		t.Errorf("commit to an unwatched table: %v allocations, want 0", n)
	}
	if _, err := m.Register(Def{Name: "cap", Table: "readings", Timing: After}); err != nil {
		t.Fatal(err)
	}
	emitted = 0
	n := testing.AllocsPerRun(1000, func() { m.afterCommit(ci) })
	if emitted == 0 {
		t.Fatal("the capture trigger emitted nothing")
	}
	// The action's Context and its bound Emit, and the change event:
	// the event, its attribute map, the new_ names of the two columns,
	// its type and its source. Before AFTER triggers were filed by
	// table, the hook also built a list of every AFTER trigger per
	// commit (12 here).
	const want = 9
	if n > want {
		t.Errorf("captured INSERT: %v allocations in the commit hook, want ≤ %d", n, want)
	}
	t.Logf("captured INSERT: %v allocations in the commit hook", n)
}

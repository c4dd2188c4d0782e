package trigger

import (
	"fmt"
	"testing"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func setup(t *testing.T) (*storage.DB, *Manager, *[]*event.Event) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, err := storage.NewSchema("readings", []storage.Column{
		{Name: "meter", Kind: val.KindString, NotNull: true},
		{Name: "kwh", Kind: val.KindFloat, NotNull: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	var events []*event.Event
	m := NewManager(db, func(ev *event.Event) { events = append(events, ev) })
	t.Cleanup(m.Close)
	return db, m, &events
}

func ins(t *testing.T, db *storage.DB, meter string, kwh float64) storage.RowID {
	t.Helper()
	id, err := db.Insert("readings", map[string]val.Value{
		"meter": val.String(meter), "kwh": val.Float(kwh),
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAfterTriggerEmitsEvents(t *testing.T) {
	db, m, events := setup(t)
	if _, err := m.Register(Def{Name: "cap", Table: "readings", Timing: After}); err != nil {
		t.Fatal(err)
	}
	id := ins(t, db, "m1", 5.0)
	db.UpdateRow("readings", id, map[string]val.Value{"kwh": val.Float(6.0)})
	db.DeleteRow("readings", id)
	if len(*events) != 3 {
		t.Fatalf("events = %d, want 3", len(*events))
	}
	evIns := (*events)[0]
	if evIns.Type != "db.readings.insert" {
		t.Errorf("insert event type = %q", evIns.Type)
	}
	if v, _ := evIns.Get("new_kwh"); !val.Equal(v, val.Float(5.0)) {
		t.Errorf("new_kwh = %v", v)
	}
	if _, ok := evIns.Attrs["old_kwh"]; ok {
		t.Error("insert event has old image")
	}
	evUpd := (*events)[1]
	if v, _ := evUpd.Get("old_kwh"); !val.Equal(v, val.Float(5.0)) {
		t.Errorf("update old_kwh = %v", v)
	}
	if v, _ := evUpd.Get("new_kwh"); !val.Equal(v, val.Float(6.0)) {
		t.Errorf("update new_kwh = %v", v)
	}
	evDel := (*events)[2]
	if evDel.Type != "db.readings.delete" {
		t.Errorf("delete event type = %q", evDel.Type)
	}
	if _, ok := evDel.Attrs["new_kwh"]; ok {
		t.Error("delete event has new image")
	}
}

func TestTriggerOpFilter(t *testing.T) {
	db, m, events := setup(t)
	m.Register(Def{Name: "only-del", Table: "readings", Timing: After,
		Ops: []storage.ChangeKind{storage.Delete}})
	id := ins(t, db, "m1", 1.0)
	db.DeleteRow("readings", id)
	if len(*events) != 1 || (*events)[0].Type != "db.readings.delete" {
		t.Fatalf("events = %v", *events)
	}
}

func TestTriggerWhenPredicate(t *testing.T) {
	db, m, events := setup(t)
	// Fire only when consumption jumps by more than 50%.
	_, err := m.Register(Def{
		Name: "spike", Table: "readings", Timing: After,
		Ops:  []storage.ChangeKind{storage.Update},
		When: "new.kwh > old.kwh * 1.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	id := ins(t, db, "m1", 10.0)
	db.UpdateRow("readings", id, map[string]val.Value{"kwh": val.Float(12.0)}) // +20%: no
	db.UpdateRow("readings", id, map[string]val.Value{"kwh": val.Float(30.0)}) // +150%: yes
	if len(*events) != 1 {
		t.Fatalf("events = %d, want 1", len(*events))
	}
	if v, _ := (*events)[0].Get("new_kwh"); !val.Equal(v, val.Float(30.0)) {
		t.Errorf("spike event new_kwh = %v", v)
	}
}

func TestBareColumnResolvesToNewImage(t *testing.T) {
	db, m, events := setup(t)
	m.Register(Def{Name: "hot", Table: "readings", Timing: After, When: "kwh > 100"})
	ins(t, db, "m1", 50)
	ins(t, db, "m2", 200)
	if len(*events) != 1 {
		t.Fatalf("events = %d, want 1", len(*events))
	}
}

func TestBeforeTriggerVeto(t *testing.T) {
	db, m, _ := setup(t)
	m.Register(Def{
		Name: "no-negative", Table: "readings", Timing: Before,
		When: "new.kwh < 0",
		Action: func(ctx *Context) error {
			return fmt.Errorf("negative reading rejected")
		},
	})
	if _, err := db.Insert("readings", map[string]val.Value{
		"meter": val.String("m1"), "kwh": val.Float(-1),
	}); err == nil {
		t.Fatal("veto did not abort insert")
	}
	tbl, _ := db.Table("readings")
	if tbl.Len() != 0 {
		t.Error("vetoed row applied")
	}
	// Positive readings pass.
	ins(t, db, "m1", 1.0)
}

func TestBeforeTriggerRewrite(t *testing.T) {
	db, m, _ := setup(t)
	m.Register(Def{
		Name: "clamp", Table: "readings", Timing: Before,
		Ops: []storage.ChangeKind{storage.Insert},
		Action: func(ctx *Context) error {
			if kwh, ok := ctx.Change.New[1].AsFloat(); ok && kwh > 1000 {
				row := append(storage.Row(nil), ctx.Change.New...)
				row[1] = val.Float(1000)
				ctx.Change.New = row
			}
			return nil
		},
	})
	id := ins(t, db, "m1", 5000)
	tbl, _ := db.Table("readings")
	row, _ := tbl.Get(id)
	if v, _ := row[1].AsFloat(); v != 1000 {
		t.Errorf("clamped kwh = %v, want 1000", v)
	}
}

func TestDropTrigger(t *testing.T) {
	db, m, events := setup(t)
	m.Register(Def{Name: "cap", Table: "readings", Timing: After})
	ins(t, db, "m1", 1)
	if err := m.Drop("cap"); err != nil {
		t.Fatal(err)
	}
	ins(t, db, "m2", 1)
	if len(*events) != 1 {
		t.Errorf("events after drop = %d, want 1", len(*events))
	}
	if err := m.Drop("cap"); err == nil {
		t.Error("double drop accepted")
	}
	// BEFORE trigger drop detaches the hook.
	m.Register(Def{Name: "veto", Table: "readings", Timing: Before,
		Action: func(*Context) error { return fmt.Errorf("no") }})
	if _, err := db.Insert("readings", map[string]val.Value{
		"meter": val.String("x"), "kwh": val.Float(1)}); err == nil {
		t.Fatal("before trigger not active")
	}
	m.Drop("veto")
	ins(t, db, "x", 1)
}

func TestRegistrationErrors(t *testing.T) {
	_, m, _ := setup(t)
	if _, err := m.Register(Def{Name: "", Table: "readings"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := m.Register(Def{Name: "x", Table: "nope"}); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := m.Register(Def{Name: "x", Table: "readings", When: "((("}); err == nil {
		t.Error("bad WHEN accepted")
	}
	if _, err := m.Register(Def{Name: "dup", Table: "readings"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(Def{Name: "dup", Table: "readings"}); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestAfterTriggerErrorHandler: an AFTER trigger's errors have no
// handler. They are dropped, and the commit that fired it stands.
func TestAfterTriggerErrorHandler(t *testing.T) {
	db, m, _ := setup(t)
	ran := 0
	m.Register(Def{Name: "boom", Table: "readings", Timing: After,
		Action: func(*Context) error { ran++; return fmt.Errorf("kaboom") }})
	ins(t, db, "m1", 1) // the commit succeeds; the action's error is dropped
	if ran != 1 {
		t.Errorf("AFTER action ran %d times, want 1", ran)
	}
	// A WHEN that fails to evaluate does not veto either.
	m.Register(Def{Name: "badwhen", Table: "readings", Timing: After,
		When: "new.meter > 5"}) // string > int → eval error
	ins(t, db, "m2", 1)
	if tbl, _ := db.Table("readings"); tbl.Len() != 2 {
		t.Errorf("rows = %d, want 2: an AFTER error must not veto the commit", tbl.Len())
	}
}

func TestManagerCloseDetaches(t *testing.T) {
	db, m, events := setup(t)
	m.Register(Def{Name: "cap", Table: "readings", Timing: After})
	m.Close()
	ins(t, db, "m1", 1)
	if len(*events) != 0 {
		t.Error("events captured after Close")
	}
}

func TestDeleteWhenSeesOldImage(t *testing.T) {
	db, m, events := setup(t)
	m.Register(Def{Name: "big-del", Table: "readings", Timing: After,
		Ops:  []storage.ChangeKind{storage.Delete},
		When: "old.kwh > 10"})
	id1 := ins(t, db, "m1", 5)
	id2 := ins(t, db, "m2", 50)
	db.DeleteRow("readings", id1)
	db.DeleteRow("readings", id2)
	if len(*events) != 1 {
		t.Fatalf("events = %d, want 1", len(*events))
	}
	if v, _ := (*events)[0].Get("old_meter"); !val.Equal(v, val.String("m2")) {
		t.Errorf("old_meter = %v", v)
	}
}

package query

import (
	"testing"

	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func positionsDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, _ := storage.NewSchema("positions", []storage.Column{
		{Name: "acct", Kind: val.KindString, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
		{Name: "qty", Kind: val.KindInt, NotNull: true},
	})
	db.CreateTable(s)
	return db
}

func insPos(t *testing.T, db *storage.DB, acct, sym string, qty int64) storage.RowID {
	t.Helper()
	id, err := db.Insert("positions", map[string]val.Value{
		"acct": val.String(acct), "sym": val.String(sym), "qty": val.Int(qty),
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDifferAddChangeRemove(t *testing.T) {
	db := positionsDB(t)
	id := insPos(t, db, "a1", "ACME", 100)
	q := New("positions").Select("acct", "sym", "qty")
	d := NewDiffer("pos", q, db, "acct", "sym")

	// First poll: everything is Added.
	deltas, err := d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind != Added {
		t.Fatalf("first poll = %+v", deltas)
	}

	// No change → no deltas (and no work, via version skip).
	deltas, err = d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("idle poll = %+v", deltas)
	}

	// Update → Changed with old and new images.
	db.UpdateRow("positions", id, map[string]val.Value{"qty": val.Int(150)})
	deltas, err = d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind != Changed {
		t.Fatalf("changed poll = %+v", deltas)
	}
	oldQty := deltas[0].Old[2]
	newQty := deltas[0].New[2]
	if !val.Equal(oldQty, val.Int(100)) || !val.Equal(newQty, val.Int(150)) {
		t.Errorf("old/new qty = %v/%v", oldQty, newQty)
	}

	// Insert + delete → Added + Removed.
	insPos(t, db, "a2", "BETA", 5)
	db.DeleteRow("positions", id)
	deltas, err = d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	var added, removed int
	for _, dl := range deltas {
		switch dl.Kind {
		case Added:
			added++
		case Removed:
			removed++
		}
	}
	if added != 1 || removed != 1 {
		t.Errorf("deltas = %+v", deltas)
	}
}

func TestDifferFilteredQuery(t *testing.T) {
	db := positionsDB(t)
	id := insPos(t, db, "a1", "ACME", 100)
	// Result-set membership change: a row leaving the filter window is
	// an event even though the row still exists.
	q := New("positions").Where("qty >= 100").Select("acct", "sym", "qty")
	d := NewDiffer("big", q, db, "acct", "sym")
	d.Poll() // baseline
	db.UpdateRow("positions", id, map[string]val.Value{"qty": val.Int(10)})
	deltas, err := d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind != Removed {
		t.Fatalf("leave-filter deltas = %+v", deltas)
	}
}

func TestDifferEvents(t *testing.T) {
	db := positionsDB(t)
	insPos(t, db, "a1", "ACME", 100)
	d := NewDiffer("pos", New("positions").Select("acct", "sym", "qty"), db, "acct", "sym")
	evs, err := d.PollEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Type != "query.pos.added" {
		t.Errorf("type = %q", ev.Type)
	}
	if v, _ := ev.Get("new_qty"); !val.Equal(v, val.Int(100)) {
		t.Errorf("new_qty = %v", v)
	}
	if v, _ := ev.Get("query"); !val.Equal(v, val.String("pos")) {
		t.Errorf("query attr = %v", v)
	}
}

func TestDifferBadKeyColumn(t *testing.T) {
	db := positionsDB(t)
	insPos(t, db, "a1", "ACME", 1)
	d := NewDiffer("x", New("positions"), db, "nope")
	if _, err := d.Poll(); err == nil {
		t.Error("bad key column accepted")
	}
}

func TestDifferAggregateQuery(t *testing.T) {
	db := positionsDB(t)
	insPos(t, db, "a1", "ACME", 100)
	insPos(t, db, "a1", "BETA", 50)
	q := New("positions").GroupBy("acct").Agg("total", Sum, "qty")
	d := NewDiffer("tot", q, db, "acct")
	d.Poll()
	insPos(t, db, "a1", "GAMA", 25)
	deltas, err := d.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Kind != Changed {
		t.Fatalf("aggregate delta = %+v", deltas)
	}
	if !val.Equal(deltas[0].New[1], val.Float(175)) {
		t.Errorf("new total = %v", deltas[0].New[1])
	}
}

package journal

import (
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

func durableDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, _ := storage.NewSchema("acct", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "balance", Kind: val.KindFloat, NotNull: true},
	}, "id")
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	other, _ := storage.NewSchema("other", []storage.Column{
		{Name: "x", Kind: val.KindInt},
	})
	db.CreateTable(other)
	return db
}

func TestMineFullLog(t *testing.T) {
	db := durableDB(t)
	id, _ := db.Insert("acct", map[string]val.Value{"id": val.Int(1), "balance": val.Float(100)})
	db.UpdateRow("acct", id, map[string]val.Value{"balance": val.Float(50)})
	db.DeleteRow("acct", id)
	db.Insert("other", map[string]val.Value{"x": val.Int(9)})

	m := NewMiner(db)
	var evs []*event.Event
	next, err := m.Mine(0, Filter{}, func(ev *event.Event) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("mined %d events, want 4", len(evs))
	}
	if evs[0].Type != "journal.acct.insert" || evs[2].Type != "journal.acct.delete" {
		t.Errorf("types = %q %q", evs[0].Type, evs[2].Type)
	}
	// Update event carries both images.
	if v, _ := evs[1].Get("old_balance"); !val.Equal(v, val.Float(100)) {
		t.Errorf("old_balance = %v", v)
	}
	if v, _ := evs[1].Get("new_balance"); !val.Equal(v, val.Float(50)) {
		t.Errorf("new_balance = %v", v)
	}
	// LSN attribute present and increasing.
	l0, _ := evs[0].Get("lsn")
	l1, _ := evs[1].Get("lsn")
	n0, _ := l0.AsInt()
	n1, _ := l1.AsInt()
	if n0 <= 0 || n1 <= n0 {
		t.Errorf("lsn sequence wrong: %d then %d", n0, n1)
	}
	// Resume: mining from `next` yields nothing new.
	count := 0
	if _, err := m.Mine(next, Filter{}, func(*event.Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("resume re-mined %d events", count)
	}
	// Incremental: a new commit is picked up from `next`.
	db.Insert("acct", map[string]val.Value{"id": val.Int(2), "balance": val.Float(1)})
	if _, err := m.Mine(next, Filter{}, func(*event.Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("incremental mine = %d events, want 1", count)
	}
}

func TestMineFilters(t *testing.T) {
	db := durableDB(t)
	id, _ := db.Insert("acct", map[string]val.Value{"id": val.Int(1), "balance": val.Float(1)})
	db.UpdateRow("acct", id, map[string]val.Value{"balance": val.Float(2)})
	db.Insert("other", map[string]val.Value{"x": val.Int(1)})

	m := NewMiner(db)
	count := 0
	m.Mine(0, Filter{Tables: []string{"acct"}, Ops: []storage.ChangeKind{storage.Update}},
		func(ev *event.Event) error { count++; return nil })
	if count != 1 {
		t.Errorf("filtered mine = %d, want 1", count)
	}
}

func TestMineVolatileFails(t *testing.T) {
	db, _ := storage.Open(storage.Options{})
	defer db.Close()
	m := NewMiner(db)
	if _, err := m.Mine(0, Filter{}, func(*event.Event) error { return nil }); err != ErrNotDurable {
		t.Errorf("Mine on volatile db: %v", err)
	}
}

func TestMineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := storage.NewSchema("acct", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "balance", Kind: val.KindFloat, NotNull: true},
	}, "id")
	db.CreateTable(schema)
	db.Insert("acct", map[string]val.Value{"id": val.Int(1), "balance": val.Float(10)})
	db.Close()

	// Mining after restart sees the pre-restart history — the defining
	// property of journal capture (nothing was lost with the process).
	db2, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	count := 0
	if _, err := NewMiner(db2).Mine(0, Filter{}, func(*event.Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("post-restart mine = %d, want 1", count)
	}
}

// tail runs m.Tail from fromLSN on its own goroutine, forwarding each
// event to the returned channel; stop ends it and returns its error.
func tail(t *testing.T, m *Miner, fromLSN uint64, f Filter) (<-chan *event.Event, func() error) {
	t.Helper()
	ch := make(chan *event.Event, 1024)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- m.Tail(fromLSN, f, quit, func(evs []*event.Event) error {
			for _, ev := range evs {
				ch <- ev
			}
			return nil
		})
	}()
	return ch, func() error {
		close(quit)
		return <-done
	}
}

func TestTailLiveCapture(t *testing.T) {
	db := durableDB(t)
	m := NewMiner(db)
	ch, stop := tail(t, m, db.WAL().NextLSN(), Filter{Tables: []string{"acct"}})
	defer stop()

	db.Insert("acct", map[string]val.Value{"id": val.Int(1), "balance": val.Float(10)})
	db.Insert("other", map[string]val.Value{"x": val.Int(1)}) // filtered out
	db.Insert("acct", map[string]val.Value{"id": val.Int(2), "balance": val.Float(20)})

	var got []*event.Event
	timeout := time.After(2 * time.Second)
	for len(got) < 2 {
		select {
		case ev := <-ch:
			got = append(got, ev)
		case <-timeout:
			t.Fatalf("timed out with %d events", len(got))
		}
	}
	if got[0].Type != "journal.acct.insert" {
		t.Errorf("tail event type = %q", got[0].Type)
	}
	if v, _ := got[1].Get("new_id"); !val.Equal(v, val.Int(2)) {
		t.Errorf("second event new_id = %v", v)
	}
	select {
	case ev := <-ch:
		t.Errorf("filtered change captured: %v", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestTailCancelStops(t *testing.T) {
	db := durableDB(t)
	ch, stop := tail(t, NewMiner(db), db.WAL().NextLSN(), Filter{})
	if err := stop(); err != nil {
		t.Fatalf("stopped tail returned %v", err)
	}
	db.Insert("acct", map[string]val.Value{"id": val.Int(1), "balance": val.Float(1)})
	select {
	case ev := <-ch:
		t.Errorf("received %v after stop", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestJournalTailCatchesUpFromLSN starts a tail behind the log's end:
// it mines the committed history first, then follows new commits, each
// change once and in LSN order.
func TestJournalTailCatchesUpFromLSN(t *testing.T) {
	db := durableDB(t)
	from := db.WAL().NextLSN()
	for i := 1; i <= 3; i++ {
		db.Insert("acct", map[string]val.Value{"id": val.Int(int64(i)), "balance": val.Float(1)})
	}
	ch, stop := tail(t, NewMiner(db), from, Filter{Tables: []string{"acct"}})
	defer stop()
	db.Insert("acct", map[string]val.Value{"id": val.Int(4), "balance": val.Float(1)})
	for want := int64(1); want <= 4; want++ {
		select {
		case ev := <-ch:
			if v, _ := ev.Get("new_id"); !val.Equal(v, val.Int(want)) {
				t.Fatalf("event %d has new_id %v", want, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for insert %d", want)
		}
	}
}

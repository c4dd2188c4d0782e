package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"eventdb/internal/cep"
	"eventdb/internal/event"
	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// openRestored opens a durable engine on dir with its registrations
// restored, the eventdbd arrangement on a leader.
func openRestored(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreRegistrations(queue.Config{}); err != nil {
		e.Close()
		t.Fatal(err)
	}
	return e
}

// catalogueRow reads a registration's spec from the catalogue.
func catalogueRow(t *testing.T, e *Engine, kind, name string) (string, bool) {
	t.Helper()
	cat, ok := e.DB.Table(registrationsTable)
	if !ok {
		t.Fatal("no catalogue table")
	}
	r, _, ok := cat.GetByPK(val.String(kind), val.String(name))
	if !ok {
		return "", false
	}
	spec, _ := r[2].AsString()
	return spec, true
}

// catalogueRows lists the catalogue as sorted "kind name spec" lines.
func catalogueRows(t *testing.T, e *Engine) []string {
	t.Helper()
	cat, _ := e.DB.Table(registrationsTable)
	_, rows := cat.ScanRows()
	out := make([]string, len(rows))
	for i, r := range rows {
		k, _ := r[0].AsString()
		n, _ := r[1].AsString()
		s, _ := r[2].AsString()
		out[i] = k + " " + n + " " + s
	}
	sort.Strings(out)
	return out
}

// emitsFraud reports whether the fraud pattern still completes.
func emitsFraud(t *testing.T, e *Engine, user string) bool {
	t.Helper()
	var got collector
	id := "fraud-watch-" + user
	if err := e.Subscribe(id, "ops", `$type = 'cep.fraud'`, got.handler); err != nil {
		t.Fatal(err)
	}
	defer e.Broker.Unsubscribe(id)
	e.Ingest(cepEvent("login", user, 0))
	e.Ingest(cepEvent("wire", user, 20000))
	return len(got.events()) == 1
}

// patternShape renders what a pattern says: its WITHIN, its strategy
// and its steps.
func patternShape(p *cep.Pattern) string {
	out := fmt.Sprintf("within %v, %v:", p.Within, p.Strategy)
	for _, st := range p.Steps {
		out += fmt.Sprintf(" %s %s %q %v;", st.Alias, st.EventType, st.Guard, st.Negated)
	}
	return out
}

// TestRegistrationCatalogue pins what the catalogue holds: one row per
// QSUB binding and per pattern, written with the registration and
// removed with it; nothing for process-bound subscriptions; nothing
// for a refused or unchanged binding. What it holds comes back after a
// restart.
func TestRegistrationCatalogue(t *testing.T) {
	dir := t.TempDir()
	e := openRestored(t, dir)
	cat, _ := e.DB.Table(registrationsTable)

	// A SUB or a CQ is a callback subscription: it dies with its
	// connection and never writes a row.
	if err := e.Subscribe("wire.1.s", "conn1", "price > 5", func(pubsub.Delivery) {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Broker.Unsubscribe("wire.1.s"); err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 0 {
		t.Fatalf("catalogue rows after SUB = %d, want 0", cat.Len())
	}

	// A refused first bind binds nothing and writes nothing, but its
	// queue is open.
	if q, err := e.BindQueue("orders", "price >>> nope", queue.Config{}); err == nil || q == nil {
		t.Fatalf("bad first bind: q=%v err=%v; want the queue and an error", q, err)
	}
	if _, ok := e.Broker.FilterOf("qsub.orders"); ok || cat.Len() != 0 {
		t.Fatalf("bad first bind left a binding (%v) or %d rows", ok, cat.Len())
	}
	if _, err := e.BindQueue("orders", "price > 100", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	if spec, ok := catalogueRow(t, e, kindQSub, "orders"); !ok || spec != "price > 100" {
		t.Fatalf("row after bind = %q, %v", spec, ok)
	}

	// The same filter again (a reconnect, a competing consumer) writes
	// nothing; a bad filter on rebind changes neither binding nor row.
	v := cat.Version()
	if _, err := e.BindQueue("orders", "price > 100", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	if q, err := e.BindQueue("orders", "price >>> nope", queue.Config{}); err == nil || q == nil {
		t.Fatalf("bad rebind: q=%v err=%v; want the queue and an error", q, err)
	}
	if got := cat.Version(); got != v {
		t.Fatalf("catalogue version %d → %d: an unchanged or refused bind wrote", v, got)
	}
	if f, _ := e.Broker.FilterOf("qsub.orders"); f != "price > 100" {
		t.Fatalf("binding after bad rebind = %q", f)
	}
	if spec, _ := catalogueRow(t, e, kindQSub, "orders"); spec != "price > 100" {
		t.Fatalf("row after bad rebind = %q", spec)
	}
	// A new filter replaces the binding and its row.
	if _, err := e.BindQueue("orders", "price > 1000", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	if spec, _ := catalogueRow(t, e, kindQSub, "orders"); spec != "price > 1000" {
		t.Fatalf("row after rebind = %q", spec)
	}

	// A pattern's row comes and goes with it.
	for _, name := range []string{"fraud", "gone"} {
		if err := e.RegisterPattern(name, fraudSpec); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Unregister(KindPattern, "gone"); err != nil {
		t.Fatal(err)
	}
	if spec, ok := catalogueRow(t, e, KindPattern, "fraud"); !ok || spec != string(fraudSpec) {
		t.Fatalf("fraud row = %q, %v", spec, ok)
	}
	if _, ok := catalogueRow(t, e, KindPattern, "gone"); ok {
		t.Fatal("unregistered pattern kept its row")
	}
	want := catalogueRows(t, e)
	if len(want) != 2 {
		t.Fatalf("catalogue = %q, want the binding and the pattern", want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openRestored(t, dir)
	defer e2.Close()
	if got := catalogueRows(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("catalogue after restart = %q, want %q", got, want)
	}
	if f, ok := e2.Broker.FilterOf("qsub.orders"); !ok || f != "price > 1000" {
		t.Fatalf("binding after restart = %q, %v", f, ok)
	}
	if got := e2.Patterns(); len(got) != 1 || got[0] != "fraud" {
		t.Fatalf("patterns after restart = %v, want [fraud]", got)
	}
	// The automaton holds the one in-memory copy of a spec, as the
	// pattern it compiled to: compare what the two patterns say.
	parsed, _ := cep.ParseSpec("fraud", fraudSpec)
	e2.cep.mu.Lock()
	p, ok := e2.cep.nfa.Pattern("fraud")
	e2.cep.mu.Unlock()
	if !ok {
		t.Fatal("no pattern fraud after restart")
	}
	if got, want := patternShape(p), patternShape(parsed); got != want {
		t.Fatalf("spec after restart = %s, want %s", got, want)
	}
	// Both registrations work again.
	if n, err := e2.IngestCount(event.New("trade", map[string]any{"price": 1500})); err != nil || n != 1 {
		t.Fatalf("binding after restart staged %d (err %v), want 1", n, err)
	}
	if !emitsFraud(t, e2, "u") {
		t.Fatal("restored pattern emits no composite")
	}
}

// TestRegistrationRaceAgreesWithCatalogue races a register against an
// unregister of one pattern name, pair after pair: whichever wins,
// the automaton and the catalogue must agree, so a restart brings back
// exactly what was registered and the activity gate counts it.
func TestRegistrationRaceAgreesWithCatalogue(t *testing.T) {
	pairs := 5000
	if testing.Short() {
		pairs = 500
	}
	dir := t.TempDir()
	e := openRestored(t, dir)
	if err := e.RegisterPattern("fraud", fraudSpec); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"steps":[{"alias":"a","type":"x"},{"alias":"b","type":"y"}]}`)
	for i := 0; i < pairs; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); e.RegisterPattern("p", spec) }()
		go func() { defer wg.Done(); e.Unregister(KindPattern, "p") }()
		wg.Wait()
		registered := e.hasPattern("p")
		if _, stored := catalogueRow(t, e, KindPattern, "p"); registered != stored {
			t.Fatalf("pair %d: registered %v, catalogue row %v", i, registered, stored)
		}
		e.Unregister(KindPattern, "p")
	}
	if got := e.cep.active.Load(); got != 1 {
		t.Fatalf("active patterns = %d after the pairs, want 1", got)
	}
	before := e.Patterns()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openRestored(t, dir)
	defer e2.Close()
	if got := e2.Patterns(); !reflect.DeepEqual(got, before) {
		t.Fatalf("patterns after restart = %v, want %v", got, before)
	}
	if !emitsFraud(t, e2, "u") {
		t.Fatal("remaining pattern emits no composite after restart")
	}
}

// TestRegistrationRaceEveryKind races a register against an unregister
// of one trigger name and of one watch name, pair after pair, while a
// writer keeps committing to the table both read, so commits read the
// AFTER triggers as they are filed and polls run as watches stop: the
// registry and the catalogue must agree after every pair.
func TestRegistrationRaceEveryKind(t *testing.T) {
	pairs := 500
	if testing.Short() {
		pairs = 100
	}
	e := openRestored(t, t.TempDir())
	defer e.Close()
	schema, err := storage.NewSchema("t", []storage.Column{{Name: "a", Kind: val.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	id, err := e.DB.Insert("t", map[string]val.Value{"a": val.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.DB.UpdateRow("t", id, map[string]val.Value{"a": val.Int(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); writer.Wait() }()
	for kind, spec := range map[string]string{
		KindTrig:  `{"table":"t"}`,
		KindWatch: `{"query":{"table":"t"},"key":["a"],"interval_ms":1}`,
	} {
		for i := 0; i < pairs; i++ {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); e.Register(kind, "r", []byte(spec)) }()
			go func() { defer wg.Done(); e.Unregister(kind, "r") }()
			wg.Wait()
			e.regMu.Lock()
			registered := regKinds[kind].has(e, "r")
			e.regMu.Unlock()
			if _, stored := catalogueRow(t, e, kind, "r"); registered != stored {
				t.Fatalf("%s pair %d: registered %v, catalogue row %v", kind, i, registered, stored)
			}
			e.Unregister(kind, "r")
		}
	}
}

// TestRegistrationsMoveLegacyStores restarts a data directory written
// before the catalogue: the rows of wire_subs and wire_patterns move
// in, the callback row is dropped, and a second restart moves nothing.
func TestRegistrationsMoveLegacyStores(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The two stores as they were, schemas and all.
	subs, err := storage.NewSchema(legacySubsTable, []storage.Column{
		{Name: "id", Kind: val.KindString, NotNull: true},
		{Name: "subscriber", Kind: val.KindString, NotNull: true},
		{Name: "filter", Kind: val.KindString, NotNull: true},
		{Name: "queue", Kind: val.KindString, Default: val.String("")},
		{Name: "priority", Kind: val.KindInt, Default: val.Int(0)},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	pats, err := storage.NewSchema(legacyPatternsTable, []storage.Column{
		{Name: "name", Kind: val.KindString, NotNull: true},
		{Name: "spec", Kind: val.KindString, NotNull: true},
	}, "name")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*storage.Schema{subs, pats} {
		if err := e.DB.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.EnsureQueue("orders", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	for _, ins := range []struct {
		table string
		row   map[string]any
	}{
		{legacySubsTable, map[string]any{"id": "qsub.orders", "subscriber": "wire", "filter": "price > 100", "queue": "orders"}},
		{legacySubsTable, map[string]any{"id": "cb", "subscriber": "bob", "filter": "price > 5"}},
		{legacyPatternsTable, map[string]any{"name": "fraud", "spec": string(fraudSpec)}},
	} {
		row := map[string]val.Value{}
		for k, v := range ins.row {
			row[k] = val.String(v.(string))
		}
		if _, err := e.DB.Insert(ins.table, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{"pattern fraud " + string(fraudSpec), "qsub orders price > 100"}
	for restart := 1; restart <= 2; restart++ {
		e := openRestored(t, dir)
		if f, ok := e.Broker.FilterOf("qsub.orders"); !ok || f != "price > 100" || e.Broker.Len() != 1 {
			t.Fatalf("restart %d: binding %q, %v; %d bindings, want only it", restart, f, ok, e.Broker.Len())
		}
		if got := e.Patterns(); len(got) != 1 || got[0] != "fraud" {
			t.Fatalf("restart %d: patterns %v, want [fraud]", restart, got)
		}
		for _, legacy := range []string{legacySubsTable, legacyPatternsTable} {
			if tbl, _ := e.DB.Table(legacy); tbl.Len() != 0 {
				t.Fatalf("restart %d: %s keeps %d rows", restart, legacy, tbl.Len())
			}
		}
		if got := catalogueRows(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("restart %d: catalogue %q, want %q", restart, got, want)
		}
		if !emitsFraud(t, e, "u") {
			t.Fatalf("restart %d: moved pattern emits no composite", restart)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreWatchIntervalOverflow: a WATCH whose interval_ms no
// Duration holds is refused as a new registration, but a catalogue row
// that holds one — written before that bound — still restores, polling
// at the default interval, so the engine starts.
func TestRestoreWatchIntervalOverflow(t *testing.T) {
	dir := t.TempDir()
	e := openRestored(t, dir)
	schema, err := storage.NewSchema("t", []storage.Column{{Name: "a", Kind: val.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	spec := `{"query":{"table":"t"},"key":["a"],"interval_ms":99999999999999999}`
	if err := e.Register(KindWatch, "w", []byte(spec)); err == nil {
		t.Fatal("a new watch with an overflowing interval_ms was registered")
	}
	if _, err := e.DB.InsertRow(registrationsTable, storage.Row{val.String(KindWatch), val.String("w"), val.String(spec)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openRestored(t, dir)
	defer e2.Close()
	e2.regMu.Lock()
	w, ok := e2.watches["w"]
	e2.regMu.Unlock()
	if !ok || w.interval != e2.watchInterval {
		t.Fatalf("restored watch %v (present %v), want it at the default interval %v", w, ok, e2.watchInterval)
	}
	if row, _ := catalogueRow(t, e2, KindWatch, "w"); row != spec {
		t.Fatalf("catalogue row %q, want it as written: %q", row, spec)
	}
	if err := e2.Register(KindWatch, "w2", []byte(spec)); err == nil {
		t.Fatal("after a restore, a new watch with an overflowing interval_ms was registered")
	}
}

package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/pubsub"
	"eventdb/internal/val"
)

var fraudSpec = []byte(`{"steps":[
	{"alias":"a","type":"login"},
	{"alias":"b","type":"wire","guard":"user = a.user AND amount > 10000"}],
	"within":"1h"}`)

func cepEvent(typ, user string, amount int) *event.Event {
	return event.New(typ, map[string]any{"user": user, "amount": amount})
}

// collector gathers delivered events from any goroutine.
type collector struct {
	mu  sync.Mutex
	evs []*event.Event
}

func (c *collector) handler(d pubsub.Delivery) {
	c.mu.Lock()
	c.evs = append(c.evs, d.Event)
	c.mu.Unlock()
}

func (c *collector) events() []*event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*event.Event(nil), c.evs...)
}

func TestRegisterPatternEmitsComposite(t *testing.T) {
	e := open(t, Config{})
	if err := e.RegisterPattern("fraud", fraudSpec); err != nil {
		t.Fatal(err)
	}
	var got collector
	if err := e.Subscribe("s", "ops", `$type = 'cep.fraud'`, got.handler); err != nil {
		t.Fatal(err)
	}
	e.Ingest(cepEvent("login", "mallory", 0))
	e.Ingest(cepEvent("wire", "mallory", 50000))
	e.Ingest(cepEvent("wire", "alice", 50000)) // no matching login
	evs := got.events()
	if len(evs) != 1 {
		t.Fatalf("composite events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Type != "cep.fraud" || ev.Source != "cep" {
		t.Errorf("composite = %s/%s", ev.Type, ev.Source)
	}
	// Attributes carry the bound events' attributes prefixed by alias.
	if v, ok := ev.Get("a_user"); !ok {
		t.Error("a_user missing")
	} else if s, _ := v.AsString(); s != "mallory" {
		t.Errorf("a_user = %v", v)
	}
	if _, ok := ev.Get("b_amount"); !ok {
		t.Errorf("b_amount missing: %v", ev)
	}
	st := e.PatternStats()
	if st.Patterns != 1 || st.Matches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegisterPatternErrors(t *testing.T) {
	e := open(t, Config{})
	if err := e.RegisterPattern("p", []byte(`{"steps":`)); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := e.RegisterPattern("p", []byte(`{"steps":[]}`)); err == nil {
		t.Error("empty steps accepted")
	}
	if err := e.RegisterPattern("p", fraudSpec); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterPattern("p", fraudSpec); !errors.Is(err, ErrExists) {
		t.Errorf("dup register err = %v, want ErrExists", err)
	}
	if err := e.Unregister(KindPattern, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown unregister err = %v, want ErrNotFound", err)
	}
	if err := e.Unregister(KindPattern, "p"); err != nil {
		t.Fatal(err)
	}
	if got := e.Patterns(); len(got) != 0 {
		t.Errorf("patterns after unregister = %v", got)
	}
	// Unregistered patterns stop matching.
	var got collector
	e.Subscribe("s", "ops", `$type LIKE 'cep.%'`, got.handler)
	e.Ingest(cepEvent("login", "u", 0))
	e.Ingest(cepEvent("wire", "u", 99999))
	if evs := got.events(); len(evs) != 0 {
		t.Errorf("events after unregister = %v", evs)
	}
}

// TestBatchedPatternFeed holds IngestBatch to Ingest: the automaton fed
// from inside a batch emits exactly the composites it emits fed one
// event per call, and both are settled when the call returns.
func TestBatchedPatternFeed(t *testing.T) {
	users := []string{"ann", "bob", "cy", "dee", "eve", "zed"}
	var logins, wires []*event.Event
	for i := 0; i < 60; i++ {
		logins = append(logins, cepEvent("login", users[i%5], 0)) // zed never logs in
	}
	for i := 0; i < 60; i++ {
		// Every third wire is under the guard's amount.
		wires = append(wires, cepEvent("wire", users[i%6], 9000+1000*(i%3)))
	}
	// composites runs the logins, then the wires, through an engine and
	// returns the (login id, wire id) pair of every composite delivered.
	composites := func(batched bool) map[[2]int64]int {
		e := open(t, Config{})
		if err := e.RegisterPattern("fraud", fraudSpec); err != nil {
			t.Fatal(err)
		}
		var got collector
		if err := e.Subscribe("s", "ops", `$type = 'cep.fraud'`, got.handler); err != nil {
			t.Fatal(err)
		}
		for _, phase := range [][]*event.Event{logins, wires} {
			if batched {
				if err := e.IngestBatch(phase); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for _, ev := range phase {
				if err := e.Ingest(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		pairs := map[[2]int64]int{}
		for _, ev := range got.events() {
			a, _ := ev.Get("a_id")
			b, _ := ev.Get("b_id")
			ai, _ := a.AsInt()
			bi, _ := b.AsInt()
			pairs[[2]int64{ai, bi}]++
		}
		if st := e.PatternStats(); st.Matches != uint64(len(got.events())) {
			t.Errorf("batched=%v: stats.Matches = %d, delivered %d", batched, st.Matches, len(got.events()))
		}
		return pairs
	}
	want := composites(false)
	got := composites(true)
	if len(want) == 0 {
		t.Fatal("Ingest emitted no composites")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IngestBatch emitted %d distinct composites, Ingest %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
}

// TestPatternHorizonInjectedClock drives horizon GC with a synthetic
// clock: a quiet stream must shed its dead partial matches without any
// new event arriving.
func TestPatternHorizonInjectedClock(t *testing.T) {
	e := open(t, Config{})
	spec := []byte(`{"steps":[{"alias":"a","type":"login"},{"alias":"b","type":"wire"}],"within":"10s"}`)
	if err := e.RegisterPattern("p", spec); err != nil {
		t.Fatal(err)
	}
	ev := cepEvent("login", "u", 0)
	e.Ingest(ev)
	if st := e.PatternStats(); st.Instances != 1 {
		t.Fatalf("instances = %d, want 1", st.Instances)
	}
	if n := e.AdvancePatternHorizon(ev.Time.Add(5 * time.Second)); n != 0 {
		t.Fatalf("pruned inside window = %d", n)
	}
	if n := e.AdvancePatternHorizon(ev.Time.Add(11 * time.Second)); n != 1 {
		t.Fatalf("pruned past window = %d, want 1", n)
	}
	st := e.PatternStats()
	if st.Instances != 0 || st.Pruned != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPatternHorizonTicker lets the engine clock do it: with a fast
// CEPAdvanceInterval, stale partials disappear while nothing is
// ingested at all.
func TestPatternHorizonTicker(t *testing.T) {
	e := open(t, Config{CEPAdvanceInterval: 2 * time.Millisecond})
	spec := []byte(`{"steps":[{"alias":"a","type":"login"},{"alias":"b","type":"wire"}],"within":"30ms"}`)
	if err := e.RegisterPattern("p", spec); err != nil {
		t.Fatal(err)
	}
	e.Ingest(cepEvent("login", "u", 0))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := e.PatternStats(); st.Instances == 0 && st.Pruned == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticker never pruned: %+v", e.PatternStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPatternOnCapturedChanges closes the loop with the paper's capture
// paths: a temporal pattern over db.<table>.insert events produced by a
// captured table.
func TestPatternOnCapturedChanges(t *testing.T) {
	e := open(t, Config{})
	if err := e.DB.CreateTable(readingsSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.CaptureTable("readings"); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"steps":[
		{"alias":"a","type":"db.readings.insert","guard":"new_kwh > 100"},
		{"alias":"b","type":"db.readings.insert","guard":"new_meter = a.new_meter AND new_kwh > 100"}]}`)
	if err := e.RegisterPattern("surge", spec); err != nil {
		t.Fatal(err)
	}
	var got collector
	e.Subscribe("s", "ops", `$type = 'cep.surge'`, got.handler)
	ins := func(meter string, kwh float64) {
		if _, err := e.DB.Insert("readings", map[string]val.Value{
			"meter": val.String(meter), "kwh": val.Float(kwh),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ins("m1", 150)
	ins("m2", 200) // different meter: must not pair with m1
	ins("m1", 50)  // below threshold: ignored, SkipTillNext skips it
	ins("m1", 180) // completes the m1 surge
	evs := got.events()
	if len(evs) != 1 {
		t.Fatalf("surge events = %d, want 1", len(evs))
	}
	if v, ok := evs[0].Get("a_new_meter"); !ok {
		t.Error("a_new_meter missing")
	} else if s, _ := v.AsString(); s != "m1" {
		t.Errorf("a_new_meter = %v", v)
	}
}

package core

import (
	"errors"
	"reflect"
	"testing"

	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
	"eventdb/internal/wiredb"
)

// registrationSeeds are the specs of the TRIG, WATCH and PATTERN tests,
// accepted and refused, by kind; fuzzKinds orders the kinds.
var (
	fuzzKinds         = [...]string{KindTrig, KindWatch, KindPattern}
	registrationSeeds = map[string][]string{
		KindTrig: {
			`{"table":"t"}`,
			`{"table":"t","ops":["insert"]}`,
			`{"table":"t","timing":"before","when":"new.a < 0","veto":"no"}`,
			`{"table":"t","timing":"before","ops":["update"],"when":"new.a < old.a","veto":"shrinking"}`,
			`{"table":"t","when":"a <<"}`,
			`{"table":"missing"}`,
			`{"table":"t","timing":"wat"}`,
			`{"table":"t","veto":"nope"}`,
			`{"table":"wire_registrations","timing":"before","veto":"no"}`,
			`{"table":"q_q"}`,
			`{}`,
			`{"table":""}`,
			`{not json`,
		},
		KindWatch: {
			`{"query":{"table":"t"},"key":["a"]}`,
			`{"query":{"table":"t","where":"a < 5","select":["a"]},"key":["a"],"interval_ms":50}`,
			`{"query":{"table":"t"}}`,
			`{"query":{"table":"missing"},"key":["a"]}`,
			`{"query":{"table":"t"},"key":["a"],"interval_ms":-1}`,
			`{"query":{"table":"wire_registrations"},"key":["kind","name"]}`,
			`{"query":{},"key":["a"]}`,
			`{"query":{"table":"t"},"key":["a"],"interval_ms":99999999999999999}`,
			`{"query":{"table":"t"},"key":["a"],"interval_ms":9223372036854}`,
		},
		KindPattern: {
			string(fraudSpec),
			`{"steps":[{"alias":"a","type":"x"},{"alias":"b","type":"y"}]}`,
			`{"steps":[{"alias":"a","type":"order","guard":"desk = 7"},{"alias":"b","type":"fill","guard":"cid = a.cid"}],"within":"1s"}`,
			`{"steps":[{"alias":"a"},{"alias":"n","type":"B","negated":true,"guard":"x BETWEEN 1 AND 'z'"},{"alias":"b","guard":"'it''s' = s"}],"strategy":"strict"}`,
			`{"steps":`,
			`{"steps":[]}`,
		},
	}
)

// fuzzEngine opens an in-memory engine with its catalogue attached, one
// table, t(a int), and one queue, q (table q_q).
func fuzzEngine(t *testing.T) *Engine {
	t.Helper()
	e := open(t, Config{})
	if err := e.RestoreRegistrations(queue.Config{}); err != nil {
		t.Fatal(err)
	}
	schema, err := storage.NewSchema("t", []storage.Column{{Name: "a", Kind: val.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateQueue("q", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// registered describes what a registration installed, for comparing two
// engines': a trigger's definition, a pattern's steps, WITHIN and
// strategy, or a watch's query and key as its catalogue row reads and
// the interval it polls at.
func registered(t *testing.T, e *Engine, kind, name string) any {
	t.Helper()
	switch kind {
	case KindTrig:
		tr, ok := e.Triggers.Lookup(name)
		if !ok {
			t.Fatalf("no trigger %q", name)
		}
		d := tr.Def
		veto := ""
		if reflect.ValueOf(d.Action).Pointer() != reflect.ValueOf(trigger.EmitChangeEvent).Pointer() {
			veto = d.Action(nil).Error() // a veto's action reads no context
		}
		return []any{d.Name, d.Table, d.Timing, d.Ops, d.When, veto}
	case KindPattern:
		e.cep.mu.Lock()
		defer e.cep.mu.Unlock()
		p, ok := e.cep.nfa.Pattern(name)
		if !ok {
			t.Fatalf("no pattern %q", name)
		}
		return patternShape(p)
	default:
		e.regMu.Lock()
		w, ok := e.watches[name]
		e.regMu.Unlock()
		if !ok {
			t.Fatalf("no watch %q", name)
		}
		row, _ := catalogueRow(t, e, kind, name)
		s, err := wiredb.ParseWatchSpec([]byte(row))
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.Query.Build()
		if err != nil {
			t.Fatal(err)
		}
		return []any{q, s.Key, w.interval}
	}
}

// FuzzRegistrationSpec registers arbitrary specs of every kind on an
// in-memory engine holding one table. Register never panics, and a
// refused spec leaves neither a registration nor a catalogue row. A spec
// it accepts can be unregistered, which takes both away, and its
// catalogue row registers again on a fresh engine as the same trigger
// definition, pattern, or watch query, key and interval.
func FuzzRegistrationSpec(f *testing.F) {
	for i, kind := range fuzzKinds {
		for _, spec := range registrationSeeds[kind] {
			f.Add(uint8(i), []byte(spec))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, spec []byte) {
		kind := fuzzKinds[int(k)%len(fuzzKinds)]
		e := fuzzEngine(t)
		err := e.Register(kind, "r", spec)
		row, stored := catalogueRow(t, e, kind, "r")
		if has := regKinds[kind].has(e, "r"); err != nil {
			if has || stored {
				t.Fatalf("refused %s %q (%v) left registration %v, row %v", kind, spec, err, has, stored)
			}
			return
		} else if !has || !stored || row != string(spec) {
			t.Fatalf("accepted %s %q: registration %v, row %q %v", kind, spec, has, row, stored)
		}
		e2 := fuzzEngine(t)
		if err := e2.Register(kind, "r", []byte(row)); err != nil {
			t.Fatalf("accepted %s %q, its row refused on a fresh engine: %v", kind, spec, err)
		}
		if a, b := registered(t, e, kind, "r"), registered(t, e2, kind, "r"); !reflect.DeepEqual(a, b) {
			t.Fatalf("accepted %s %q as %v, its row as %v", kind, spec, a, b)
		}
		if err := e.Unregister(kind, "r"); err != nil {
			t.Fatalf("accepted %s %q, cannot unregister it: %v", kind, spec, err)
		}
		if _, stored := catalogueRow(t, e, kind, "r"); stored || regKinds[kind].has(e, "r") {
			t.Fatalf("unregistered %s %q kept its row (%v) or registration", kind, spec, stored)
		}
		if err := e.Unregister(kind, "r"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second unregister of %s: %v, want ErrNotFound", kind, err)
		}
	})
}

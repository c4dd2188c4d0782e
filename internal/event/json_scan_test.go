package event

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/val"
)

// envelopeKeys are the keys UnmarshalJSONEvent matches, exactly.
var envelopeKeys = []string{"id", "type", "source", "time", "attrs"}

// caseFoldedEnvelopeKey reports the deliberate divergence PROTOCOL.md
// §2.2.1 lists: a top-level key that encoding/json would bind to an
// envelope field by Unicode case folding ("Type", "ATTRS") but that the
// scanner, matching exactly, ignores. Such inputs are the only ones the
// differential leaves out.
func caseFoldedEnvelopeKey(data []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(data, &top) != nil {
		return false
	}
	for k := range top {
		for _, name := range envelopeKeys {
			if k != name && strings.EqualFold(k, name) {
				return true
			}
		}
	}
	return false
}

// explicit reports which of the two fields a decoder otherwise invents
// (a fresh id, the current time) the input pins, so that the
// differential compares them only then; tm is the time string pinned.
func explicit(data []byte) (id bool, tm string) {
	var je jsonEvent
	if json.Unmarshal(data, &je) != nil {
		return false, ""
	}
	return je.ID != 0, je.Time
}

// sameTime holds parseTime to time.Parse on one string: both fail or
// both give the same instant, in UTC, and the string is canonical
// exactly when it is that instant's RFC3339Nano rendering.
func sameTime(t *testing.T, s string) {
	t.Helper()
	got, canonical, err := parseTime([]byte(s))
	want, wantErr := time.Parse(time.RFC3339Nano, s)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("time %q: parseTime err = %v, time.Parse err = %v", s, err, wantErr)
	}
	if err != nil {
		return
	}
	if !got.Equal(want) || got.Location() != time.UTC {
		t.Errorf("time %q: parseTime = %v, time.Parse %v", s, got, want)
	}
	if rendered := want.UTC().Format(time.RFC3339Nano); canonical != (rendered == s) {
		t.Errorf("time %q: canonical = %v, but it renders as %q", s, canonical, rendered)
	}
}

// sameDecode holds the scanner to the oracle on one input.
func sameDecode(t *testing.T, data []byte) {
	t.Helper()
	sameTime(t, string(data))
	if caseFoldedEnvelopeKey(data) {
		return
	}
	want, wantErr := oracleUnmarshalJSONEvent(data)
	got, gotErr := UnmarshalJSONEvent(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: scanner err = %v, oracle err = %v", data, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	hasID, timeStr := explicit(data)
	hasTime := timeStr != ""
	if hasTime {
		sameTime(t, timeStr)
	}
	if hasID && got.ID != want.ID {
		t.Errorf("%q: id = %d, oracle %d", data, got.ID, want.ID)
	}
	if !hasID && got.ID == 0 {
		t.Errorf("%q: no id was assigned", data)
	}
	if hasTime && !got.Time.Equal(want.Time) {
		t.Errorf("%q: time = %v, oracle %v", data, got.Time, want.Time)
	}
	if !hasTime && time.Since(got.Time) > time.Minute {
		t.Errorf("%q: absent time decoded as %v, not as now", data, got.Time)
	}
	if got.Time.Location() != time.UTC {
		t.Errorf("%q: time is not in UTC", data)
	}
	if got.Type != want.Type || got.Source != want.Source {
		t.Errorf("%q: type/source = %q/%q, oracle %q/%q", data, got.Type, got.Source, want.Type, want.Source)
	}
	if got.Attrs == nil || len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("%q: attrs = %v, oracle %v", data, got.Attrs, want.Attrs)
	}
	for k, w := range want.Attrs {
		g, ok := got.Attrs[k]
		if !ok || g.Kind() != w.Kind() || !val.Equal(g, w) {
			t.Errorf("%q: attr %q = %v (%s, present %v), oracle %v (%s)", data, k, g, g.Kind(), ok, w, w.Kind())
		}
	}
	// An input kept as the event's JSON must be what the encoder writes.
	if p := got.enc.Load(); p != nil {
		if !bytes.Equal(*p, data) {
			t.Errorf("%q: kept %q as its JSON", data, *p)
		}
		if enc, err := MarshalJSONEvent(got.Clone()); err != nil || !bytes.Equal(enc, data) {
			t.Errorf("%q: kept as its JSON, but the encoder writes %q (%v)", data, enc, err)
		}
	}
	sameTable(t, data, got)
}

// sameTable holds the engine's decode (UnmarshalJSONEventString), which
// keeps a canonical input's attributes as offsets into it, to the map
// decode of the same input, eager: the same accept, and the same answer
// from every reader of the attributes — Get of each key, of keys beside
// it and of a missing one, Fields, Encode, Clone and String — and a kept
// input marshals back to itself. The table is used exactly when the
// input is kept and fits it.
func sameTable(t *testing.T, data []byte, eager *Event) {
	t.Helper()
	e, err := UnmarshalJSONEventString(string(data))
	if err != nil {
		t.Fatalf("%q: the table decode refused what the map decode took: %v", data, err)
	}
	kept := e.enc.Load() != nil
	fits := kept && len(eager.Attrs) <= maxTableAttrs && len(data)-2 < 1<<16
	if table := e.end != 0; table != fits || table != (e.Attrs == nil) {
		t.Fatalf("%q: table = %v with Attrs %v, want a table exactly when kept (%v) and it fits (%v)", data, table, e.Attrs, kept, fits)
	}
	// An absent id or time is invented by each decode; make them agree.
	e.ID, e.Time = eager.ID, eager.Time
	same := func(what string, g, w val.Value, gok, wok bool) {
		if gok != wok || g.Kind() != w.Kind() || !val.Equal(g, w) && !(g.IsNull() && w.IsNull()) {
			t.Errorf("%q: %s = %v (%s, %v), map decode %v (%s, %v)", data, what, g, g.Kind(), gok, w, w.Kind(), wok)
		}
	}
	probe := func(name string) {
		g, gok := e.Get(name)
		w, wok := eager.Get(name)
		same(fmt.Sprintf("Get(%q)", name), g, w, gok, wok)
	}
	probe("\x7f missing")
	probe("")
	for k := range eager.Attrs {
		probe(k)
		probe(k + "\x00")
		if k != "" {
			probe(k[:len(k)-1])
		}
	}
	fields := e.Fields()
	if len(fields) != len(eager.Attrs) || fields == nil {
		t.Errorf("%q: Fields = %v, map decode %v", data, fields, eager.Attrs)
	}
	for k, w := range eager.Attrs {
		g, ok := fields[k]
		same(fmt.Sprintf("Fields()[%q]", k), g, w, ok, true)
	}
	if enc, err := MarshalJSONEvent(e); kept && (err != nil || !bytes.Equal(enc, data)) {
		t.Errorf("%q: the table decode marshals to %q (%v)", data, enc, err)
	}
	if g, w := Encode(nil, e), Encode(nil, eager); !bytes.Equal(g, w) {
		t.Errorf("%q: Encode = %x, map decode %x", data, g, w)
	}
	if g, w := e.Clone(), eager.Clone(); g.ID != w.ID || g.Type != w.Type || g.Source != w.Source ||
		!g.Time.Equal(w.Time) || len(g.Attrs) != len(w.Attrs) || g.String() != w.String() {
		t.Errorf("%q: Clone = %v, map decode %v", data, g, w)
	}
	if g, w := e.String(), eager.String(); g != w {
		t.Errorf("%q: String = %s, map decode %s", data, g, w)
	}
}

// protocolExamples returns every example event of PROTOCOL.md: the
// lines of its fenced blocks that are an object with a "type".
func protocolExamples(tb testing.TB) []string {
	tb.Helper()
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, `{"`) && strings.Contains(line, `"type":`) && strings.HasSuffix(line, "}") {
			out = append(out, line)
		}
	}
	if len(out) < 3 {
		tb.Fatalf("found %d example events in PROTOCOL.md, want the three of §2.2.1 at least", len(out))
	}
	return out
}

var decodeSeeds = []string{
	// Escapes, surrogates, invalid UTF-8.
	`{"type":"a\"b\\c\/d\b\f\n\r\te","attrs":{"k\u0041":"\u00e9\u20AC"}}`,
	`{"type":"t","attrs":{"pair":"\ud83d\ude00","lone_hi":"\ud83dx","lone_lo":"\ude00","hi_hi":"\ud83d\ud83d\ude00","hi_end":"\ud83d"}}`,
	`{"type":"t","attrs":{"hi_then_bmp":"\ud83d\u0041","cut":"\ud83d\u00"}}`,
	"{\"type\":\"t\",\"attrs\":{\"bad\":\"a\xffb\xc3\",\"enc_surrogate\":\"\xed\xa0\x80\",\"ok\":\"\xc3\xa9\"}}",
	"{\"type\":\"t\xff\",\"source\":\"\xfe\",\"attrs\":{\"\xff\":1}}",
	"{\"type\":\"t\",\"attrs\":{\"bad_then_escape\":\"\xa9\\b\",\"ok_then_escape\":\"\xc3\xa9\\n\"}}",
	`{"type":"t","attrs":{"a":"\x"}}`,
	`{"type":"t","attrs":{"a":"\u12G4"}}`,
	`{"type":"t","attrs":{"a":"\`,
	"{\"type\":\"t\",\"attrs\":{\"a\":\"raw\ttab\"}}",
	"{\"type\":\"t\",\"attrs\":{\"a\":\"raw\x00nul\"}}",
	`{"\u0074ype":"escaped key","attrs":{}}`,
	// Numbers.
	`{"type":"n","attrs":{"a":1e3,"b":1.0,"c":-0,"d":9007199254740991,"e":9007199254740992,"f":9007199254740993,"g":-9007199254740993}}`,
	`{"type":"n","attrs":{"a":1e400}}`,
	`{"type":"n","attrs":{"a":-1e400}}`,
	`{"type":"n","attrs":{"a":1e-400,"b":-0.0,"c":0.1,"d":123456789012345,"e":1234567890123456,"f":-12345678901234,"g":1E+2,"h":2.5e-1}}`,
	`{"type":"n","attrs":{"a":01}}`,
	`{"type":"n","attrs":{"a":1.}}`,
	`{"type":"n","attrs":{"a":.5}}`,
	`{"type":"n","attrs":{"a":1e}}`,
	`{"type":"n","attrs":{"a":+1}}`,
	`{"type":"n","attrs":{"a":-}}`,
	`{"type":"n","attrs":{"a":0x10}}`,
	`{"type":"n","attrs":{"a":NaN}}`,
	`{"type":"n","x":1e400,"y":[1e400,{"z":-0}]}`,
	// id.
	`{"id":1.0,"type":"i"}`,
	`{"id":1e3,"type":"i"}`,
	`{"id":-1,"type":"i"}`,
	`{"id":-0,"type":"i"}`,
	`{"id":"5","type":"i"}`,
	`{"id":0,"type":"i"}`,
	`{"id":18446744073709551615,"type":"i"}`,
	`{"id":18446744073709551616,"type":"i"}`,
	`{"id":null,"type":"i"}`,
	`{"id":7,"id":null,"type":"i"}`,
	`{"id":7,"id":8,"type":"i"}`,
	`{"id":true,"type":"i"}`,
	// Duplicate, unknown and null keys.
	`{"type":"a","type":"b"}`,
	`{"type":"a","type":null}`,
	`{"type":null}`,
	`{"type":null,"type":"late"}`,
	`{"type":""}`,
	`{"type":5}`,
	`{"type":"a","source":null,"source":"s","source":null}`,
	`{"type":"a","time":"nope","time":"2024-05-01T12:00:00Z"}`,
	`{"type":"a","time":"2024-05-01T12:00:00Z","time":"nope"}`,
	`{"type":"a","time":"2024-05-01T12:00:00Z","time":""}`,
	`{"type":"a","time":"2024-05-01T12:00:00Z","time":null}`,
	`{"type":"a","time":"2024-05-01T14:00:00.123456789+02:00"}`,
	`{"type":"a","time":"0001-01-01T00:00:00Z"}`,
	// Times beside the form the encoder writes.
	`{"type":"a","time":"2024-02-29T23:59:59.999999999Z"}`,
	`{"type":"a","time":"2023-02-29T00:00:00Z"}`,
	`{"type":"a","time":"2024-04-31T00:00:00Z"}`,
	`{"type":"a","time":"2024-05-01T24:00:00Z"}`,
	`{"type":"a","time":"2024-05-01T12:00:60Z"}`,
	`{"type":"a","time":"2024-05-01t12:00:00z"}`,
	`{"type":"a","time":"2024-05-01T12:00:00.Z"}`,
	`{"type":"a","time":"2024-05-01T12:00:00.1234567891Z"}`,
	`{"type":"a","time":"2024-05-01T12:00:00.000Z"}`,
	`{"type":"a","time":"0000-01-01T00:00:00Z"}`,
	`{"type":"a","time":"2024-5-01T12:00:00Z"}`,
	`{"type":"a","time":"2024-05-01T12:00:00-00:00"}`,
	`{"type":"a","time":17}`,
	`{"type":"a","attrs":null}`,
	`{"type":"a","attrs":{"a":1},"attrs":null}`,
	`{"type":"a","attrs":null,"attrs":{"b":2}}`,
	`{"type":"a","attrs":{"a":1,"c":1},"attrs":{"b":2,"c":"two"}}`,
	`{"type":"a","attrs":{"a":1,"a":2,"a":null}}`,
	`{"type":"a"}`,
	`{"type":"a","attrs":{}}`,
	`{"type":"a","attrs":[]}`,
	`{"type":"a","attrs":5}`,
	`{"type":"a","attrs":"x"}`,
	`{"type":"a","unknown":{"deep":[1,"two",{"three":[null,true,false]}]},"more":"x","n":-1.5e3}`,
	`{"type":"a","unknown":{"deep":[1,}}`,
	`{"type":"a","unknown":[1 2]}`,
	`{"type":"a","unknown":{"k" 1}}`,
	`{"type":"a","unknown":tru}`,
	`{"type":"a","unknown":nulls}`,
	`{"type":"a","":1,"attrs":{"":""}}`,
	// Nested attribute values.
	`{"type":"a","attrs":{"o":{"nested":1}}}`,
	`{"type":"a","attrs":{"o":[1,2]}}`,
	`{"type":"a","attrs":{"o":[}}`,
	// The deliberate divergence (left out of the differential by name).
	`{"Type":"a"}`,
	`{"type":"a","TYPE":5}`,
	`{"type":"a","ATTRS":{"x":{"y":1}}}`,
	`{"type":"a","\u017Fource":7}`,
	"{\"type\":\"a\",\"\u017fource\":7}",
	// White space, garbage, other top-level values, nothing.
	" \t\r\n{ \"type\" : \"w\" , \"attrs\" : { \"a\" : 1 , \"b\" : [ ] } } \n",
	"\v{\"type\":\"w\"}",
	`{"type":"w"} x`,
	`{"type":"w"}{"type":"w"}`,
	`{"type":"w",}`,
	`{,"type":"w"}`,
	`{"type":"w" "attrs":{}}`,
	`{"type":"w","attrs":{"a":1,}}`,
	`{"type":"w","attrs":{"a"}}`,
	`{type:"w"}`,
	`{"type":"w"`,
	`{"type":"w","attrs":{`,
	`{`,
	`}`,
	`null`,
	`"type"`,
	`[{"type":"w"}]`,
	`17`,
	`true`,
	"\xef\xbb\xbf{\"type\":\"bom\"}",
	``,
	strings.Repeat("[", 20000),
	`{"type":"d","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"type":"d","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"type":"d","x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"type":"d","x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

// tickJSON is the E23 benchmark's ~200-byte tick (bench/ticks.go) as
// the daemon's encoder renders it.
func tickJSON(tb testing.TB) []byte {
	tb.Helper()
	e := &Event{ID: 4242, Type: "tick", Time: time.Date(2026, 9, 27, 12, 0, 0, 123456789, time.UTC),
		Attrs: map[string]val.Value{
			"seq": val.Int(4241), "sym": val.String("SYM0042"), "qty": val.Int(977), "px": val.Int(99173),
			"pad": val.String(strings.Repeat("p", 100)),
		}}
	data, err := MarshalJSONEvent(e)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzUnmarshalJSONEvent is the differential: on every input the
// scanner and the encoding/json decoder it replaced agree on accept or
// reject and, when they accept, on the event — except for the one
// divergence PROTOCOL.md §2.2.1 names (see caseFoldedEnvelopeKey).
func FuzzUnmarshalJSONEvent(f *testing.F) {
	for _, s := range protocolExamples(f) {
		f.Add([]byte(s))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for _, c := range keepCases {
		f.Add([]byte(c.in))
	}
	for _, c := range tableCases {
		f.Add([]byte(c.in))
	}
	f.Add(tickJSON(f))
	f.Fuzz(func(t *testing.T, data []byte) { sameDecode(t, data) })
}

// TestUnmarshalJSONEventExactKeys pins the divergence itself: a
// case-folded envelope key is an unknown key.
func TestUnmarshalJSONEventExactKeys(t *testing.T) {
	if _, err := UnmarshalJSONEvent([]byte(`{"Type":"a"}`)); err == nil {
		t.Error(`"Type" was taken for "type"`)
	}
	e, err := UnmarshalJSONEvent([]byte(`{"type":"a","TYPE":5,"Source":"s","ATTRS":{"x":{"y":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != "a" || e.Source != "" || len(e.Attrs) != 0 {
		t.Errorf("case-folded keys leaked into the event: %+v", e)
	}
	for _, in := range []string{`{"Type":"a"}`, `{"type":"a","TYPE":5}`} {
		if !caseFoldedEnvelopeKey([]byte(in)) {
			t.Errorf("%s is not recognised as the named divergence", in)
		}
	}
	if caseFoldedEnvelopeKey([]byte(`{"type":"a","attrs":{"Type":1}}`)) {
		t.Error("an attribute named Type is not an envelope key")
	}
}

// TestUnmarshalJSONEventCopiesInput: servers decode straight out of a
// frame reader's buffer and clients out of a read buffer that the next
// message overwrites, so nothing in the event may alias the input.
func TestUnmarshalJSONEventCopiesInput(t *testing.T) {
	in := []byte(`{"id":9,"type":"reading","source":"probe","time":"2024-05-01T12:00:00Z","attrs":{"site":"north","esc":"a\nb","n":5}}`)
	e, err := UnmarshalJSONEvent(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 'X'
	}
	site, _ := e.Attrs["site"].AsString()
	esc, _ := e.Attrs["esc"].AsString()
	if e.Type != "reading" || e.Source != "probe" || site != "north" || esc != "a\nb" || len(e.Attrs) != 3 {
		t.Errorf("event changed when its input was overwritten: %v source=%q", e, e.Source)
	}
	for k := range e.Attrs {
		if strings.Contains(k, "X") {
			t.Errorf("attribute key %q aliases the input", k)
		}
	}
}

// randomValue draws one attribute value of any kind.
func randomValue(r *rand.Rand) val.Value {
	str := func() string {
		const alphabet = "ab \"\\\n\t\x01é€😀\xff,{}"
		runes := []rune(alphabet)
		var sb strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			sb.WriteRune(runes[r.Intn(len(runes))])
		}
		return strings.ToValidUTF8(sb.String(), "�")
	}
	switch val.Kind(r.Intn(7)) {
	case val.KindBool:
		return val.Bool(r.Intn(2) == 0)
	case val.KindInt:
		return val.Int(r.Int63n(1<<53) - 1<<52)
	case val.KindFloat:
		return val.Float(math.Float64frombits(r.Uint64()))
	case val.KindString:
		return val.String(str())
	case val.KindTime:
		return val.Time(time.Unix(r.Int63n(4e9), r.Int63n(1e9)))
	case val.KindBytes:
		return val.Bytes([]byte(str()))
	}
	return val.Null
}

// TestJSONRoundTripProperty: Unmarshal(appendJSONEvent(e)) ≡ e over
// every val kind, where ≡ is what the JSON form can carry — a time or
// bytes attribute comes back as the string it was rendered as, an
// integral float below 2^53 as an int, and an int at or beyond 2^53 as
// a float.
func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		e := &Event{ID: ID(r.Uint64()>>1 + 1), Type: "t" + fmt.Sprint(i), Time: time.Unix(r.Int63n(4e9), r.Int63n(1e9)).UTC(),
			Attrs: map[string]val.Value{}}
		if r.Intn(2) == 0 {
			e.Source = "src\t" + fmt.Sprint(i)
		}
		for n := r.Intn(6); n > 0; n-- {
			v := randomValue(r)
			if f, ok := v.AsFloat(); ok && v.Kind() == val.KindFloat && (math.IsNaN(f) || math.IsInf(f, 0)) {
				continue // the encoder refuses these (TestAppendJSONEventRejectsNaN)
			}
			e.Attrs[fmt.Sprintf("k%d\"%d", n, r.Intn(3))] = v
		}
		data, err := appendJSONEvent(nil, e, new(encodeScratch))
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalJSONEvent(data)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if got.ID != e.ID || got.Type != e.Type || got.Source != e.Source || !got.Time.Equal(e.Time) || len(got.Attrs) != len(e.Attrs) {
			t.Fatalf("%s: envelope came back as %v source=%q time=%v", data, got, got.Source, got.Time)
		}
		for k, v := range e.Attrs {
			want := v
			switch v.Kind() {
			case val.KindTime:
				tm, _ := v.AsTime()
				want = val.String(tm.UTC().Format(time.RFC3339Nano))
			case val.KindBytes:
				b, _ := v.AsBytes()
				enc, _ := json.Marshal(b)
				want = val.String(strings.Trim(string(enc), `"`))
			case val.KindFloat:
				if f, _ := v.AsFloat(); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
					want = val.Int(int64(f))
				}
			}
			if g := got.Attrs[k]; g.Kind() != want.Kind() || !val.Equal(g, want) {
				t.Fatalf("%s: attr %q came back as %v (%s), want %v (%s)", data, k, g, g.Kind(), want, want.Kind())
			}
		}
		sameDecode(t, data)
	}
}

// keepCases are the inputs UnmarshalJSONEvent keeps as their event's
// JSON, and one input it does not keep per rule of canonical: each of
// those still decodes, and is a seed of FuzzUnmarshalJSONEvent.
var keepCases = []struct {
	name, in string
	kept     bool
}{
	{"the tick", "", true}, // tickJSON, filled in by the test
	{"a source", `{"id":7,"type":"t","source":"probe","time":"2024-05-01T12:00:00Z","attrs":{"a":1}}`, true},
	{"no attributes", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}`, true},
	{"bool and null attributes", `{"id":7,"type":"t","time":"2024-05-01T12:00:00.5Z","attrs":{"a":true,"b":false,"c":null}}`, true},
	{"negative and non-ASCII", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"n":-5,"s":"é€","z":0}}`, true},

	{"leading white space", ` {"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"trailing white space", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}` + "\n", false},
	{"inner white space", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a": 1}}`, false},
	{"escaped slash", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":"x\/y"}}`, false},
	{"unicode escape", `{"id":7,"type":"\u0041","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"invalid UTF-8", "{\"id\":7,\"type\":\"t\",\"time\":\"2024-05-01T12:00:00Z\",\"attrs\":{\"a\":\"\xff\"}}", false},
	{"attribute key repeated", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1,"a":1}}`, false},
	{"attribute keys out of order", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"b":1,"a":1}}`, false},
	{"envelope keys out of order", `{"type":"t","id":7,"time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"envelope key repeated", `{"id":7,"type":"t","type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"unknown key", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","x":1,"attrs":{}}`, false},
	{"null envelope key", `{"id":7,"type":"t","source":null,"time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"no id", `{"type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"zero id", `{"id":0,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"no time", `{"id":7,"type":"t","attrs":{}}`, false},
	{"empty time", `{"id":7,"type":"t","time":"","attrs":{}}`, false},
	{"offset time", `{"id":7,"type":"t","time":"2024-05-01T12:00:00+00:00","attrs":{}}`, false},
	{"fraction with a trailing zero", `{"id":7,"type":"t","time":"2024-05-01T12:00:00.50Z","attrs":{}}`, false},
	{"no attrs", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z"}`, false},
	{"empty source", `{"id":7,"type":"t","source":"","time":"2024-05-01T12:00:00Z","attrs":{}}`, false},
	{"minus zero", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":-0}}`, false},
	{"a fraction", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1.5}}`, false},
	{"a 16-digit integer", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1234567890123456}}`, false},
}

// TestDecodeKeepsOnlyCanonicalInput: an input is kept as its event's
// JSON, the payload EncodedJSON returns, exactly when it is what the
// encoder writes for that event — and the payload is the decoder's
// copy, never the caller's buffer.
func TestDecodeKeepsOnlyCanonicalInput(t *testing.T) {
	for _, c := range keepCases {
		in := []byte(c.in)
		if c.in == "" {
			in = tickJSON(t)
		}
		e, err := UnmarshalJSONEvent(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if kept := e.enc.Load() != nil; kept != c.kept {
			t.Errorf("%s: kept = %v, want %v", c.name, kept, c.kept)
		}
		enc, err := e.EncodedJSON()
		if err != nil {
			t.Fatal(err)
		}
		if c.kept && (!bytes.Equal(enc, in) || &enc[0] == &in[0]) {
			t.Errorf("%s: EncodedJSON = %q, want a copy of the input", c.name, enc)
		}
		sameDecode(t, in)
	}
}

// TestAllocsUnmarshalJSONEvent bounds the scanner's allocations on the
// E23 tick by what the decoded event itself is made of: the Event, its
// map header and its one table of slots, and the copy of the input that
// its strings are parts of and that is kept as its EncodedJSON. An
// escaped string would add its own; the scratch the scanner unescapes
// into stays on the stack.
func TestAllocsUnmarshalJSONEvent(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	data := tickJSON(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := UnmarshalJSONEvent(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("UnmarshalJSONEvent allocates %v per tick, want at most 4", allocs)
	}
}

// TestAllocsEncodedJSONAfterDecode: a decoded tick is pushed in the
// bytes it arrived in — EncodedJSON encodes nothing, allocates nothing
// and returns the same slice on every call.
func TestAllocsEncodedJSONAfterDecode(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	data := tickJSON(t)
	e, err := UnmarshalJSONEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.EncodedJSON()
	if err != nil || !bytes.Equal(first, data) {
		t.Fatalf("EncodedJSON = %q, %v; want the input", first, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if got, _ := e.EncodedJSON(); &got[0] != &first[0] {
			t.Fatal("EncodedJSON returned another slice")
		}
	})
	if allocs != 0 {
		t.Errorf("EncodedJSON of a decoded tick allocates %v per call, want 0", allocs)
	}
}

var sinkEvent *Event

// BenchmarkUnmarshalJSONEvent decodes the E23 tick (the figure the
// benchmark's traced run reports as event.json_decode_ns). A guard,
// not a headline.
func BenchmarkUnmarshalJSONEvent(b *testing.B) {
	data := tickJSON(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := UnmarshalJSONEvent(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkEvent = e
	}
}

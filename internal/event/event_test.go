package event

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"eventdb/internal/raceflag"
	"eventdb/internal/val"
)

func TestNextIDMonotonic(t *testing.T) {
	a, b := NextID(), NextID()
	if b <= a {
		t.Errorf("ids not increasing: %d then %d", a, b)
	}
}

func TestNewAndGet(t *testing.T) {
	e := New("trade", map[string]any{"symbol": "ACME", "price": 101.5, "qty": 300})
	if e.Type != "trade" || e.ID == 0 || e.Time.IsZero() {
		t.Fatalf("envelope not populated: %+v", e)
	}
	if v, ok := e.Get("symbol"); !ok || !val.Equal(v, val.String("ACME")) {
		t.Errorf("Get(symbol) = %v, %v", v, ok)
	}
	if _, ok := e.Get("missing"); ok {
		t.Error("Get(missing) should report !ok")
	}
	// Pseudo-attributes.
	if v, ok := e.Get("$type"); !ok || !val.Equal(v, val.String("trade")) {
		t.Errorf("Get($type) = %v", v)
	}
	if v, ok := e.Get("$id"); !ok || !val.Equal(v, val.Int(int64(e.ID))) {
		t.Errorf("Get($id) = %v", v)
	}
	if _, ok := e.Get("$time"); !ok {
		t.Error("Get($time) should succeed")
	}
	if _, ok := e.Get("$source"); !ok {
		t.Error("Get($source) should succeed")
	}
}

func TestNewCheckedRejectsBadTypes(t *testing.T) {
	if _, err := NewChecked("x", map[string]any{"bad": struct{}{}}); err == nil {
		t.Error("expected conversion error")
	}
	defer func() {
		if recover() == nil {
			t.Error("New should panic on bad attr type")
		}
	}()
	New("x", map[string]any{"bad": make(chan int)})
}

// TestWithAttrAndClone: an event derived with one attribute replaced —
// Clone, then set — leaves the original alone.
func TestWithAttrAndClone(t *testing.T) {
	e := New("a", map[string]any{"k": 1})
	c := e.Clone()
	c.Attrs["k"] = val.Int(99)
	if v, _ := e.Get("k"); !val.Equal(v, val.Int(1)) {
		t.Error("Clone shares attribute map")
	}
	if v, _ := c.Get("k"); !val.Equal(v, val.Int(99)) {
		t.Error("derived event lost its attribute")
	}
}

func TestStringDeterministic(t *testing.T) {
	e := New("t", map[string]any{"b": 2, "a": 1, "c": 3})
	s := e.String()
	if !strings.Contains(s, "a=1, b=2, c=3") {
		t.Errorf("String() not sorted: %s", s)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := &Event{
		ID:     42,
		Type:   "t.x",
		Source: "src-1",
		Time:   time.Date(2026, 6, 10, 1, 2, 3, 400, time.UTC),
		Attrs: map[string]val.Value{
			"s":  val.String("hello"),
			"i":  val.Int(-7),
			"f":  val.Float(2.5),
			"b":  val.Bool(true),
			"by": val.Bytes([]byte{1, 2, 3}),
			"t":  val.Time(time.Unix(100, 5).UTC()),
			"n":  val.Null,
		},
	}
	buf := Encode(nil, e)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if got.ID != e.ID || got.Type != e.Type || got.Source != e.Source || !got.Time.Equal(e.Time) {
		t.Errorf("envelope mismatch: %+v vs %+v", got, e)
	}
	if len(got.Attrs) != len(e.Attrs) {
		t.Fatalf("attr count %d vs %d", len(got.Attrs), len(e.Attrs))
	}
	for k, want := range e.Attrs {
		gv, ok := got.Attrs[k]
		if !ok {
			t.Errorf("missing attr %q", k)
			continue
		}
		if want.IsNull() {
			if !gv.IsNull() {
				t.Errorf("attr %q: got %v want null", k, gv)
			}
			continue
		}
		if !val.Equal(gv, want) {
			t.Errorf("attr %q: got %v want %v", k, gv, want)
		}
	}
}

func TestEncodeCanonical(t *testing.T) {
	e1 := New("t", map[string]any{"a": 1, "b": 2})
	e2 := e1.Clone()
	if string(Encode(nil, e1)) != string(Encode(nil, e2)) {
		t.Error("encoding not canonical across clones")
	}
}

func TestDecodeErrors(t *testing.T) {
	e := New("t", map[string]any{"a": 1})
	buf := Encode(nil, e)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			// Some prefixes may decode if attr count is reached early;
			// only the full buffer is guaranteed valid. Skip those.
			got, n, _ := Decode(buf[:cut])
			if got != nil && n == cut {
				continue
			}
			t.Errorf("truncated decode at %d succeeded incorrectly", cut)
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Error("decode of empty buffer should fail")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(typ, src, key string, iv int64, sv string) bool {
		e := &Event{
			ID:     NextID(),
			Type:   typ,
			Source: src,
			Time:   time.Unix(0, iv).UTC(),
			Attrs: map[string]val.Value{
				key:          val.Int(iv),
				key + "\x00": val.String(sv),
			},
		}
		buf := Encode(nil, e)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Type == typ && got.Source == src && len(got.Attrs) == len(e.Attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := New("trade", map[string]any{
		"symbol": "ACME", "price": 99.25, "qty": 10, "flag": true, "note": nil,
	})
	e.Source = "feed-1"
	data, err := MarshalJSONEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "trade" || got.Source != "feed-1" || got.ID != e.ID {
		t.Errorf("envelope mismatch: %+v", got)
	}
	if v, _ := got.Get("qty"); !val.Equal(v, val.Int(10)) {
		t.Errorf("integral JSON number should be int, got %v (%s)", v, v.Kind())
	}
	if v, _ := got.Get("price"); !val.Equal(v, val.Float(99.25)) {
		t.Errorf("price = %v", v)
	}
	if v, _ := got.Get("flag"); !val.Equal(v, val.Bool(true)) {
		t.Errorf("flag = %v", v)
	}
}

func TestUnmarshalJSONForeign(t *testing.T) {
	// A foreign producer that knows nothing of our ID scheme.
	got, err := UnmarshalJSONEvent([]byte(`{"type":"alert","attrs":{"level":3,"msg":"hot"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID == 0 {
		t.Error("missing ID should be assigned")
	}
	if got.Time.IsZero() {
		t.Error("missing time should default to now")
	}
	if _, err := UnmarshalJSONEvent([]byte(`{"attrs":{}}`)); err == nil {
		t.Error("missing type should fail")
	}
	if _, err := UnmarshalJSONEvent([]byte(`{`)); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := UnmarshalJSONEvent([]byte(`{"type":"x","time":"not-a-time"}`)); err == nil {
		t.Error("bad time should fail")
	}
	if _, err := UnmarshalJSONEvent([]byte(`{"type":"x","attrs":{"o":{"nested":1}}}`)); err == nil {
		t.Error("nested object attr should fail")
	}
}

// --- encode-once payload cache ------------------------------------------

func TestEncodedJSONMatchesMarshal(t *testing.T) {
	e := New("trade", map[string]any{"sym": "ACME", "price": 1.5})
	want, err := MarshalJSONEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("EncodedJSON = %s, want %s", got, want)
	}
}

func TestEncodedJSONCachedExactlyOnce(t *testing.T) {
	e := New("t", map[string]any{"a": 1, "b": "x"})
	first, err := e.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	second, _ := e.EncodedJSON()
	if &first[0] != &second[0] {
		t.Error("EncodedJSON re-encoded instead of returning the cached slice")
	}
}

// TestEncodedJSONConcurrentFanout pins the immutability contract under
// -race: many goroutines racing on the first encode all end up sharing
// one published slice, byte-identical everywhere and never re-written.
func TestEncodedJSONConcurrentFanout(t *testing.T) {
	for round := 0; round < 50; round++ {
		e := New("t", map[string]any{"a": int64(round), "b": "payload", "c": 2.5})
		const sinks = 16
		results := make([][]byte, sinks)
		var wg sync.WaitGroup
		for i := 0; i < sinks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				data, err := e.EncodedJSON()
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = data
			}(i)
		}
		wg.Wait()
		for i := 1; i < sinks; i++ {
			if &results[i][0] != &results[0][0] {
				t.Fatal("sinks observed different payload slices (cache written more than once)")
			}
		}
	}
}

func TestEncodedJSONNotInheritedByDerivedEvents(t *testing.T) {
	e := New("t", map[string]any{"k": 1})
	orig, err := e.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	origCopy := string(orig)

	c := e.Clone()
	c.Attrs["k"] = val.Int(3)
	cj, err := c.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) == origCopy {
		t.Error("Clone served the stale parent cache")
	}
	if got, _ := e.EncodedJSON(); string(got) != origCopy {
		t.Error("derived events corrupted the original's cache")
	}
}

// TestAppendJSONEventAgainstEncodingJSON cross-checks the hand-rolled
// encoder against encoding/json over awkward inputs: every value kind,
// escapes, control bytes, invalid UTF-8.
func TestAppendJSONEventAgainstEncodingJSON(t *testing.T) {
	e := &Event{
		ID:     7,
		Type:   "we\"ird\\type\n",
		Source: "src\tcontrol\x01",
		Time:   time.Date(2026, 7, 30, 1, 2, 3, 456789, time.UTC),
		Attrs: map[string]val.Value{
			"s":       val.String("line1\nline2 \"quoted\" \\ € 漢字"),
			"invalid": val.String("bad\xffutf8"),
			"i":       val.Int(-42),
			"f":       val.Float(2.5),
			"big":     val.Float(1e21),
			"b":       val.Bool(true),
			"n":       val.Null,
			"by":      val.Bytes([]byte{0, 1, 2, 0xFF}),
			"t":       val.Time(time.Unix(123, 456).UTC()),
			"":        val.String("empty key"),
		},
	}
	data, err := appendJSONEvent(nil, e, new(encodeScratch))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("emitted invalid JSON: %s", data)
	}
	got, err := UnmarshalJSONEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != e.ID || got.Type != e.Type || got.Source != e.Source || !got.Time.Equal(e.Time) {
		t.Errorf("envelope mismatch: %+v vs %+v", got, e)
	}
	if v, _ := got.Get("i"); !val.Equal(v, val.Int(-42)) {
		t.Errorf("i = %v", v)
	}
	if v, _ := got.Get("f"); !val.Equal(v, val.Float(2.5)) {
		t.Errorf("f = %v", v)
	}
	if v, _ := got.Get("s"); !val.Equal(v, val.String("line1\nline2 \"quoted\" \\ € 漢字")) {
		t.Errorf("s = %v", v)
	}
	if v, _ := got.Get("by"); !val.Equal(v, val.String("AAEC/w==")) {
		t.Errorf("bytes should round-trip as base64 string, got %v", v)
	}
	// Appending to a non-empty prefix must not corrupt either part.
	withPrefix, err := appendJSONEvent([]byte("EVT id "), e, new(encodeScratch))
	if err != nil {
		t.Fatal(err)
	}
	if string(withPrefix[:7]) != "EVT id " || !json.Valid(withPrefix[7:]) {
		t.Errorf("prefix append corrupted output: %s", withPrefix)
	}
}

func TestAppendJSONEventDeterministic(t *testing.T) {
	e := New("t", map[string]any{"b": 2, "a": 1, "c": 3, "d": "x"})
	first, err := appendJSONEvent(nil, e, new(encodeScratch))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := appendJSONEvent(nil, e, new(encodeScratch))
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("encoding not canonical: %s vs %s", again, first)
		}
	}
}

func TestAppendJSONEventRejectsNaN(t *testing.T) {
	e := New("t", nil)
	e.Attrs = map[string]val.Value{"f": val.Float(math.NaN())}
	if _, err := appendJSONEvent(nil, e, new(encodeScratch)); err == nil {
		t.Error("NaN should not encode")
	}
}

// TestAllocsMarshalJSONEvent pins the encoder's cost: the result and
// nothing else — no chain of grown-and-abandoned buffers behind it.
func TestAllocsMarshalJSONEvent(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := New("trade", map[string]any{"sym": "ACME", "price": 1.5, "qty": 10, "pad": strings.Repeat("x", 100)})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := MarshalJSONEvent(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("MarshalJSONEvent allocates %v per call, want 1", allocs)
	}
}

// TestAllocsEncodedJSONSteadyState pins the encode-once contract: after
// the first call the cached payload is returned with zero allocations.
func TestAllocsEncodedJSONSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := New("trade", map[string]any{"sym": "ACME", "price": 1.5, "qty": 10})
	if _, err := e.EncodedJSON(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EncodedJSON(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached EncodedJSON allocates %v per call, want 0", allocs)
	}
}

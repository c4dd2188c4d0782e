package event

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"eventdb/internal/raceflag"
	"eventdb/internal/val"
)

// TestEventSize: the offset table lives inside Event, which must stay in
// the 160-byte size class (104 bytes before the table).
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 160 {
		t.Errorf("Event is %d bytes, want at most 160", size)
	}
}

// attrsJSON is a kept event whose attrs object holds body.
func attrsJSON(body string) string {
	return `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{` + body + `}}`
}

// manyAttrs is n attributes with ascending keys.
func manyAttrs(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`"k%02d":%d`, i, i)
	}
	return strings.Join(parts, ",")
}

// widest is a kept event whose attrs object closes one byte past the
// reach of a table's offsets, two bytes before its end.
var widest = attrsJSON(`"pad":"` + strings.Repeat("p", 1<<16-len(attrsJSON(`"pad":""`))+2) + `"`)

// tableCases are inputs that UnmarshalJSONEventString decodes with an
// offset table and, one per cause, inputs it decodes into the map
// instead; each is a seed of FuzzUnmarshalJSONEvent.
var tableCases = []struct {
	name, in string
	table    bool
}{
	{"no attributes", attrsJSON(``), true},
	{"every literal", attrsJSON(`"a":true,"b":false,"c":null,"d":"","e":-12,"f":0,"g":"x"`), true},
	{"as many attributes as the table holds", attrsJSON(manyAttrs(maxTableAttrs)), true},
	{"one attribute more", attrsJSON(manyAttrs(maxTableAttrs + 1)), false},
	{"white space", attrsJSON(`"a": 1`), false},
	{"white space after the attrs", attrsJSON(`"a":1`) + " ", false},
	{"an escaped string", attrsJSON(`"a":"x\ny"`), false},
	{"an escaped key", attrsJSON(`"\u0061":1`), false},
	{"a float", attrsJSON(`"a":1.5`), false},
	{"an integral float", attrsJSON(`"a":1.0`), false},
	{"minus zero", attrsJSON(`"a":-0`), false},
	{"a 16-digit integer", attrsJSON(`"a":1234567890123456`), false},
	{"descending keys", attrsJSON(`"b":1,"a":2`), false},
	{"a duplicate key", attrsJSON(`"a":1,"a":2`), false},
	{"two attrs objects", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1},"attrs":{"b":2}}`, false},
	{"null attrs", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":null}`, false},
	{"attrs then null", `{"id":7,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1},"attrs":null}`, false},
	{"no id", `{"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"a":1}}`, false},
	{"the widest input the offsets reach", widest[:len(widest)-len(`p"}}`)] + `"}}`, true},
	{"past the offset width", widest, false},
}

// TestOffsetTableFallbacks: UnmarshalJSONEventString keeps an offset
// table only for canonical input that fits it; every other input takes
// the map, as UnmarshalJSONEvent decodes it (sameDecode checks both).
func TestOffsetTableFallbacks(t *testing.T) {
	for _, c := range tableCases {
		e, err := UnmarshalJSONEventString(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if table := e.end != 0; table != c.table {
			t.Errorf("%s: table = %v, want %v", c.name, table, c.table)
		}
		if (e.Attrs == nil) != c.table {
			t.Errorf("%s: Attrs = %v beside table = %v", c.name, e.Attrs, c.table)
		}
		sameDecode(t, []byte(c.in))
	}
}

// TestAllocsDecodedTickGet: reading an attribute of a tick the engine
// decoded, present or absent, allocates nothing.
func TestAllocsDecodedTickGet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e, err := UnmarshalJSONEventString(string(tickJSON(t)))
	if err != nil || e.end == 0 {
		t.Fatalf("the tick decoded without a table: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, name := range []string{"pad", "px", "qty", "seq", "sym", "absent", "a", "zz"} {
			if _, ok := e.Get(name); ok == (len(name) < 2 || name == "absent" || name == "zz") {
				t.Fatalf("Get(%q) = %v", name, ok)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Get on a decoded tick allocates %v, want 0", allocs)
	}
	if e.Attrs != nil {
		t.Error("Get built the attribute map")
	}
}

// TestAllocsDecodedTickEncode: staging a tick the engine decoded
// (Encode, the queue's form) allocates only its output: into a buffer
// with room, nothing — no map, no sorted key slice.
func TestAllocsDecodedTickEncode(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	data := tickJSON(t)
	e, err := UnmarshalJSONEventString(string(data))
	if err != nil || e.end == 0 {
		t.Fatalf("the tick decoded without a table: %v", err)
	}
	eager, err := UnmarshalJSONEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	want := Encode(nil, eager)
	buf := make([]byte, 0, 2*len(want))
	allocs := testing.AllocsPerRun(1000, func() {
		if got := Encode(buf[:0], e); !bytes.Equal(got, want) {
			t.Fatalf("Encode = %x, want %x", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("Encode of a decoded tick into a buffer with room allocates %v, want 0", allocs)
	}
	if e.Attrs != nil {
		t.Error("Encode built the attribute map")
	}
}

// TestDecodedEventShared: one decoded event is read by many goroutines
// at once — deliveries of one publish run on every sink's goroutine —
// and each reader gets the same answer while the first Fields builds
// the map (run under -race).
func TestDecodedEventShared(t *testing.T) {
	data := tickJSON(t)
	eager, err := UnmarshalJSONEvent(data)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, wantStr := Encode(nil, eager), eager.String()
	for round := 0; round < 20; round++ {
		e, err := UnmarshalJSONEventString(string(data))
		if err != nil || e.end == 0 {
			t.Fatalf("the tick decoded without a table: %v", err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					switch (g + i) % 5 {
					case 0:
						if v, _ := e.Get("sym"); !val.Equal(v, val.String("SYM0042")) {
							t.Errorf("Get(sym) = %v", v)
						}
					case 1:
						if f := e.Fields(); len(f) != len(eager.Attrs) || !val.Equal(f["qty"], val.Int(977)) {
							t.Errorf("Fields = %v", f)
						}
					case 2:
						if s := e.Clone().String(); s != wantStr {
							t.Errorf("Clone = %s, want %s", s, wantStr)
						}
					case 3:
						if b := Encode(nil, e); !bytes.Equal(b, wantEnc) {
							t.Errorf("Encode = %x", b)
						}
					case 4:
						if b, err := e.EncodedJSON(); err != nil || !bytes.Equal(b, data) {
							t.Errorf("EncodedJSON = %q, %v", b, err)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkUnmarshalJSONEventString decodes the E23 tick as the daemon
// does, into an offset table (BenchmarkUnmarshalJSONEvent is the same
// tick into the map, as the client decodes it). A guard, not a headline.
func BenchmarkUnmarshalJSONEventString(b *testing.B) {
	data := string(tickJSON(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		e, err := UnmarshalJSONEventString(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkEvent = e
	}
}

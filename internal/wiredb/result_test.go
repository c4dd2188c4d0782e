package wiredb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"eventdb/internal/event"
	"eventdb/internal/query"
	"eventdb/internal/raceflag"
	"eventdb/internal/val"
)

// OracleParseResult is the decoder ParseResult replaced: json.Unmarshal
// into a Result, then integral numbers below 2^53 folded to int64.
// FuzzParseResult holds ParseResult to it, and so does the client round
// trip of the external tests; nothing outside the tests calls it.
func OracleParseResult(data []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("wiredb: result: %w", err)
	}
	for _, row := range res.Rows {
		for j, raw := range row {
			if f, ok := raw.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
				row[j] = int64(f)
			}
		}
	}
	return &res, nil
}

// foldedKey reports the first divergence ParseResult documents: a
// top-level key that encoding/json binds to columns or rows by Unicode
// case folding ("Rows", "COLUMNS") and that ParseResult, matching
// exactly, skips.
func foldedKey(data []byte) bool {
	var top map[string]json.RawMessage
	if json.Unmarshal(data, &top) != nil {
		return false
	}
	for k := range top {
		if k != "columns" && strings.EqualFold(k, "columns") || k != "rows" && strings.EqualFold(k, "rows") {
			return true
		}
	}
	return false
}

// nestedRows records whether any rows value of a reply, repeated keys
// included, holds an array or object cell.
type nestedRows bool

func (n *nestedRows) UnmarshalJSON(raw []byte) error {
	var rows [][]any
	_ = json.Unmarshal(raw, &rows) // a bad rows value is the oracle's to report
	for _, row := range rows {
		for _, cell := range row {
			switch cell.(type) {
			case []any, map[string]any:
				*n = true
			}
		}
	}
	return nil
}

// nestedCell reports the second divergence: a cell that encoding/json
// decodes into a []any or a map and ParseResult refuses.
func nestedCell(data []byte) bool {
	var probe struct{ Rows nestedRows }
	_ = json.Unmarshal(data, &probe)
	return bool(probe.Rows)
}

// valueKinds is a reply of every value kind, at the edges the fold and
// the string rules have.
func valueKinds() *query.Result {
	ts := time.Date(2026, 10, 19, 17, 4, 56, 123456789, time.UTC)
	return &query.Result{Columns: []string{"v", "quote\"d", "ünï"}, Rows: [][]val.Value{
		{val.Null, val.Bool(true), val.Bool(false)},
		{val.Int(0), val.Int(255), val.Int(-256)},
		{val.Int(1<<53 - 1), val.Int(1 << 53), val.Int(1<<53 + 1)},
		{val.Int(-(1<<53 - 1)), val.Int(-(1 << 53)), val.Int(math.MinInt64)},
		{val.Int(math.MaxInt64), val.Float(3), val.Float(-1.5)},
		{val.Float(1e21), val.Float(1e-7), val.Float(math.MaxFloat64)},
		{val.Float(9007199254740993), val.Float(5e-324), val.Float(math.Copysign(0, -1))},
		{val.String(""), val.String(`say "hi" \ bye`), val.String("tab\tnl\ncr\rbell\a\x00")},
		{val.String("héllo, 世界 🎉"), val.String("bad \xff\xfe utf8"), val.String("<a&b> \u2028\u2029")},
		{val.Time(ts), val.Bytes([]byte{0, 1, 2, 0xff}), val.Bytes(nil)},
	}}
}

// malformedReplies are replies the two decoders must refuse or read
// alike, each at an edge of the grammar or of encoding/json's rules.
var malformedReplies = []string{
	``, ` `, `null`, ` null `, `nul`, `[]`, `"rows"`, `1`, `true`, `{}`, `{`, `}`,
	`{"columns":null,"rows":null}`, `{"columns":[],"rows":[]}`, `{"rows":[[],null,[1]]}`,
	`{"columns":["a"],"rows":[[1]]} `, `{"columns":["a"],"rows":[[1]]}x`, `{"rows":[[1]]}{}`,
	`{"rows":[[1,]]}`, `{"rows":[[,1]]}`, `{"rows":[[1] [2]]}`, `{"rows":[[1]],}`, `{"rows" [[1]]}`,
	`{"columns":[1]}`, `{"columns":"a"}`, `{"columns":{}}`, `{"rows":[1]}`, `{"rows":{}}`, `{"rows":"x"}`,
	`{"rows":[[1,[2]]]}`, `{"rows":[[{"a":1}]]}`, `{"rows":[[[1]]],"rows":[[1]]}`,
	`{"rows":[[1e400]]}`, `{"rows":[[-1e400]]}`, `{"rows":[[1e-400]]}`, `{"x":1e400,"rows":[[1]]}`,
	`{"rows":[[9007199254740992,9007199254740991,-9007199254740992,18014398509481984]]}`,
	`{"rows":[[1.0,-0,-0.0,1E2,0.5e1,12345678901234567890]]}`, `{"rows":[[01]]}`, `{"rows":[[-]]}`,
	`{"columns":["a"],"columns":["b","c"]}`, `{"columns":["a","b"],"columns":[null,null,null]}`,
	`{"columns":["a","b"],"columns":["c"],"columns":["d",null]}`, `{"columns":[null,"x"]}`,
	`{"rows":[[1],[2]],"rows":[[3]]}`, `{"rows":[[1]],"rows":null}`, `{"rows":null,"rows":[]}`,
	`{"Rows":[[1]]}`, `{"COLUMNS":["a"]}`, `{"rowſ":[[1]]}`, `{"columns":["a"],"Columns":5}`,
	`{"col\u0075mns":["a"],"r\u006fws":[["\u00e9"]]}`, `{"rows":[["\ud800","\ud800\udc00","\udc00\ud800","\u00"]]}`,
	`{"rows":[["a\/b\b\f\n\r\t\\\""]]}`, `{"rows":[["\x"]]}`, "{\"rows\":[[\"\x01\"]]}", "{\"rows\":[[\"\xff\"]]}",
	`{"rows":[["abc`, `{"rows":[[true,false,null,tru]]}`, `{"extra":{"deep":[[[{}]]]},"rows":[[1]]}`,
	"\t{ \"rows\" :\n[ [ 1 , \"a\" ] ] }\r\n", `{"rows":[["unterminated]]}`,
}

// FuzzParseResult holds the one-pass decoder to the encoding/json one it
// replaced: on every input the oracle refuses, ParseResult refuses, and
// on every input it accepts, ParseResult returns a deep-equal Result
// (nil and empty slices told apart), but for the two refusals its doc
// names. The seeds are AppendResult's replies of every value kind and
// malformed ones.
func FuzzParseResult(f *testing.F) {
	for _, res := range []*query.Result{valueKinds(), scanResult(3), {Columns: []string{"n"}}, {}} {
		data, err := MarshalResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range malformedReplies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := OracleParseResult(data)
		got, err := ParseResult(string(data))
		switch {
		case foldedKey(data):
			// The oracle reads a key ParseResult skips; neither answer binds.
		case wantErr != nil:
			if err == nil {
				t.Fatalf("%q: ParseResult = %#v, the oracle refuses: %v", data, got, wantErr)
			}
		case nestedCell(data):
			if !errors.Is(err, event.ErrNotScalar) {
				t.Fatalf("%q: an array or object cell gives %#v, %v, want ErrNotScalar", data, got, err)
			}
		case err != nil:
			t.Fatalf("%q: ParseResult refuses (%v), the oracle gives %#v", data, err, want)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%q:\nParseResult %#v\noracle      %#v", data, got, want)
		}
	})
}

// TestParseResultStrings: a string without escapes is part of the reply,
// not a copy, and the rows share one array of cells, each row capped at
// its end so that an append to it cannot overwrite the next.
func TestParseResultStrings(t *testing.T) {
	reply := `{"columns":["sym","n"],"rows":[["S01",1],["S\u0030\u0032",2]]}`
	res, err := ParseResult(reply)
	if err != nil {
		t.Fatal(err)
	}
	inReply := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(reply)))
		return lo <= p && p < lo+uintptr(len(reply))
	}
	if !inReply(res.Columns[0]) || !inReply(res.Rows[0][0].(string)) {
		t.Error("an unescaped string is a copy, not a part of the reply")
	}
	if s := res.Rows[1][0].(string); s != "S02" || inReply(s) {
		t.Errorf("escaped cell = %q, want S02 unescaped", s)
	}
	next := unsafe.Add(unsafe.Pointer(&res.Rows[0][1]), unsafe.Sizeof(res.Rows[0][1]))
	if cap(res.Rows[0]) != 2 || next != unsafe.Pointer(&res.Rows[1][0]) {
		t.Error("the rows do not share one array of cells, capped at each row's end")
	}
}

// TestAllocsParseResult: a reply of the dbmix scan's shape allocates its
// Result, its rows, one array of cells and the boxing of the cells that
// need it, at most half of what the oracle allocates for the same bytes.
func TestAllocsParseResult(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	data, err := MarshalResult(scanResult(200))
	if err != nil {
		t.Fatal(err)
	}
	reply := string(data)
	got := testing.AllocsPerRun(20, func() {
		if _, err := ParseResult(reply); err != nil {
			t.Fatal(err)
		}
	})
	oracle := testing.AllocsPerRun(20, func() {
		if _, err := OracleParseResult(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > 999 || got > oracle/2 {
		t.Errorf("ParseResult of 200 rows allocates %v, want <= 999 and at most half the oracle's %v", got, oracle)
	}
}

// BenchmarkParseResult decodes a reply of the dbmix scan's shape.
func BenchmarkParseResult(b *testing.B) {
	data, err := MarshalResult(scanResult(200))
	if err != nil {
		b.Fatal(err)
	}
	reply := string(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseResult(reply); err != nil {
			b.Fatal(err)
		}
	}
}

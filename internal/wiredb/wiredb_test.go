package wiredb

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"eventdb/internal/query"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
)

func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema, err := ParseTableSpec([]byte(`{
		"name": "stock",
		"columns": [
			{"name": "sku", "kind": "string", "notnull": true},
			{"name": "qty", "kind": "int", "notnull": true},
			{"name": "price", "kind": "float", "default": 1.5},
			{"name": "seen", "kind": "time"}
		],
		"key": ["sku"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestParseTableSpec(t *testing.T) {
	db := testDB(t)
	tbl, ok := db.Table("stock")
	if !ok {
		t.Fatal("table missing")
	}
	s := tbl.Schema()
	if s.Columns[2].Kind != val.KindFloat {
		t.Errorf("price kind = %s", s.Columns[2].Kind)
	}
	if f, _ := s.Columns[2].Default.AsFloat(); f != 1.5 {
		t.Errorf("price default = %v", s.Columns[2].Default)
	}
	if !s.HasPrimaryKey() {
		t.Error("primary key lost")
	}
	for _, bad := range []string{
		`{"name":"x","columns":[{"name":"a","kind":"wat"}]}`,
		`{"name":"","columns":[{"name":"a","kind":"int"}]}`,
		`{"name":"x","columns":[],"unknown_field":1}`,
	} {
		if _, err := ParseTableSpec([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestValuesCoercion(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.Table("stock")
	vals, err := Values(tbl.Schema(), map[string]any{
		"sku":   "w",
		"qty":   float64(7), // JSON number
		"price": float64(2), // integral JSON number into a float column
		"seen":  "2026-07-30T12:00:00Z",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := vals["qty"].AsInt(); n != 7 {
		t.Errorf("qty = %v", vals["qty"])
	}
	if vals["price"].Kind() != val.KindFloat {
		t.Errorf("price kind = %s", vals["price"].Kind())
	}
	ts, ok := vals["seen"].AsTime()
	if !ok || !ts.Equal(time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)) {
		t.Errorf("seen = %v", vals["seen"])
	}
	if _, err := Values(tbl.Schema(), map[string]any{"nope": 1}); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown column error = %v", err)
	}
	if _, err := Values(tbl.Schema(), map[string]any{"seen": "not a time"}); !errors.Is(err, ErrSpec) {
		t.Errorf("bad time error = %v", err)
	}
}

func TestDMLHelpers(t *testing.T) {
	db := testDB(t)
	for i, sku := range []string{"a", "b", "c"} {
		if _, err := InsertRow(db, "stock", map[string]any{"sku": sku, "qty": float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := UpdateWhere(db, "stock", "qty >= 10", map[string]any{"qty": float64(99)})
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	n, err = DeleteWhere(db, "stock", "qty = 99")
	if err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	tbl, _ := db.Table("stock")
	if tbl.Len() != 1 {
		t.Fatalf("rows left = %d", tbl.Len())
	}
	// Predicate compile failures classify as spec errors; missing
	// tables as table errors.
	if _, err := UpdateWhere(db, "stock", "qty >>> 1", map[string]any{"qty": 0}); !errors.Is(err, ErrSpec) {
		t.Errorf("bad where error = %v", err)
	}
	if _, err := DeleteWhere(db, "missing", ""); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table error = %v", err)
	}
	// A no-match where is n=0, not an error.
	if n, err := DeleteWhere(db, "stock", "qty = 12345"); err != nil || n != 0 {
		t.Errorf("no-match delete = %d, %v", n, err)
	}
}

func TestQuerySpecAndResultRoundTrip(t *testing.T) {
	db := testDB(t)
	for i, sku := range []string{"a", "b", "c"} {
		if _, err := InsertRow(db, "stock", map[string]any{"sku": sku, "qty": float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := ParseQuerySpec([]byte(`{
		"table": "stock", "where": "qty > 0",
		"select": ["sku", "qty"],
		"order": [{"col": "qty", "desc": true}],
		"limit": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	q, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsRune(string(data), '\n') {
		t.Fatal("result not single-line")
	}
	back, err := ParseResult(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0][0] != "c" || back.Rows[0][1] != int64(20) {
		t.Fatalf("round-tripped result = %+v", back)
	}

	// Aggregates build too.
	agg, err := ParseQuerySpec([]byte(`{"table":"stock","aggs":[{"alias":"n","kind":"count"},{"alias":"total","kind":"sum","col":"qty"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	q, err = agg.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err = q.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Get(0, "total"); !ok || v.String() != "30" {
		t.Fatalf("sum = %v", v)
	}
	if _, err := (QuerySpec{}).Build(); err == nil {
		t.Error("empty spec built")
	}
	if _, err := (QuerySpec{Table: "t", Aggs: []AggSpec{{Kind: "wat"}}}).Build(); err == nil {
		t.Error("unknown aggregate built")
	}
}

func TestTriggerSpec(t *testing.T) {
	def, err := ParseTrigger("guard", []byte(`{"table":"t","timing":"before","ops":["update"],"when":"new.a < old.a","veto":"shrinking"}`))
	if err != nil {
		t.Fatal(err)
	}
	if def.Timing != trigger.Before || len(def.Ops) != 1 || def.Ops[0] != storage.Update {
		t.Fatalf("def = %+v", def)
	}
	if def.Action == nil {
		t.Fatal("veto action missing")
	}
	if err := def.Action(nil); err == nil || err.Error() != "shrinking" {
		t.Fatalf("veto action error = %v", err)
	}
	// Veto demands a BEFORE trigger; unknown timings and ops fail.
	for _, bad := range []TriggerSpec{
		{Table: "t", Veto: "nope"},
		{Table: "t", Timing: "sometimes"},
		{Table: "t", Ops: []string{"upsert"}},
	} {
		if _, err := bad.Def("x"); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestWatchSpecValidation(t *testing.T) {
	if _, err := ParseWatchSpec([]byte(`{"query":{"table":"t"},"key":["a"],"interval_ms":50}`)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"query":{"table":"t"}}`,
		`{"query":{"table":"t"},"key":[],"interval_ms":5}`,
		`{"query":{"table":"t"},"key":["a"],"interval_ms":-1}`,
		`{"query":{},"key":["a"]}`,
	} {
		if _, err := ParseWatchSpec([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
	// An interval_ms too long for a Duration is refused in a new spec;
	// a stored one decodes, and polls at the default.
	long := []byte(`{"query":{"table":"t"},"key":["a"],"interval_ms":99999999999999999}`)
	if _, err := ParseWatchSpec(long); err == nil {
		t.Errorf("accepted %s", long)
	}
	if s, err := DecodeWatchSpec(long); err != nil || s.Interval() != 0 {
		t.Errorf("DecodeWatchSpec(%s) = interval %v, %v; want 0, nil", long, s.Interval(), err)
	}
}

// marshalResultOracle is the encoder MarshalResult replaced: the rows
// rebuilt as [][]any and handed to encoding/json.
func marshalResultOracle(res *query.Result) ([]byte, error) {
	out := Result{Columns: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, row := range res.Rows {
		jr := make([]any, len(row))
		for j, v := range row {
			a := v.Any()
			switch x := a.(type) {
			case time.Time:
				a = x.Format(time.RFC3339Nano)
			case []byte:
				a = base64.StdEncoding.EncodeToString(x)
			}
			jr[j] = a
		}
		out.Rows[i] = jr
	}
	return json.Marshal(out)
}

// FuzzMarshalResult holds MarshalResult to the oracle byte for byte,
// errors included, over every kind: s is a column name and a string
// value, b a bytes value, f a float, n an int and a time, and shape
// picks the rows — none, a nil and an empty one, or rows of every kind
// in some order — and whether the columns are nil.
func FuzzMarshalResult(f *testing.F) {
	f.Add("plain", []byte("blob"), 1.5, int64(42), uint8(2))
	f.Add(`<a href="x">&amp;</a>`, []byte{}, 1e21, int64(-1), uint8(3))
	f.Add("\x00\x01\b\f\n\r\t\x1f\\\"\x7f", []byte{0xff, 0}, 1e-7, int64(1700000000123456789), uint8(6))
	f.Add("line\u2028sep\u2029para", []byte(nil), 123456789.125, int64(1700000000000000000), uint8(1))
	f.Add("bad \xff\xfe utf8 \xe2\x82 \xed\xa0\x80", []byte(nil), math.NaN(), int64(0), uint8(2))
	f.Add("", []byte(nil), math.Inf(-1), int64(math.MinInt64), uint8(7))
	f.Add("\u00e9\u4e2d\U0001f600\ufffd", []byte(nil), 5e-324, int64(math.MaxInt64), uint8(0))
	f.Add("x", []byte(nil), -1e-300, int64(1), uint8(4))
	f.Add("y", []byte(nil), math.Inf(1), int64(2), uint8(5))
	f.Fuzz(func(t *testing.T, s string, b []byte, fl float64, n int64, shape uint8) {
		values := []val.Value{val.Null, val.Bool(n%2 == 0), val.Int(n), val.Float(fl),
			val.String(s), val.Time(time.Unix(0, n)), val.Bytes(b)}
		res := &query.Result{Columns: []string{"id", s}}
		switch shape % 4 {
		case 1:
			res.Rows = [][]val.Value{nil, {}}
		case 2, 3:
			for k := 0; k < int(shape%4); k++ {
				row := make([]val.Value, len(values))
				for j := range row {
					row[j] = values[(j+k+int(shape/8))%len(values)]
				}
				res.Rows = append(res.Rows, row)
			}
		}
		if shape&4 != 0 {
			res.Columns = nil
		}
		want, wantErr := marshalResultOracle(res)
		got, err := MarshalResult(res)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || !bytes.Equal(got, want) {
			t.Fatalf("MarshalResult = %q, %v\nencoding/json  %q, %v", got, err, want, wantErr)
		}
		if got, err := AppendResult([]byte("OK "), res); err == nil && string(got) != "OK "+string(want) {
			t.Fatalf("AppendResult after a prefix = %q, want %q", got, "OK "+string(want))
		}
	})
}

// scanResult is a reply of the dbmix scan's shape: n rows of seq, ts,
// sym, qty and px.
func scanResult(n int) *query.Result {
	res := &query.Result{Columns: []string{"seq", "ts", "sym", "qty", "px"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, []val.Value{val.Int(int64(40_000 + i)),
			val.Time(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(40_000+i) * time.Second)),
			val.String(fmt.Sprintf("S%02d", i%50)), val.Int(int64(900 + i%100)), val.Int(int64(i * 31 % 10000))})
	}
	return res
}

// TestAllocsMarshalResult: a reply is one allocation however many rows
// it has — no per-row or per-value garbage, no regrowth.
func TestAllocsMarshalResult(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	measure := func(rows int) float64 {
		res := scanResult(rows)
		return testing.AllocsPerRun(20, func() {
			if _, err := MarshalResult(res); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := measure(20), measure(2000); few != many || many > 2 {
		t.Errorf("MarshalResult allocates %v at 20 rows and %v at 2,000, want the same and at most 2", few, many)
	}
}

// BenchmarkMarshalResult encodes a reply of the dbmix scan's shape.
func BenchmarkMarshalResult(b *testing.B) {
	res := scanResult(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalResult(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(res.Rows)), "ns/row")
}

package wiredb_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/server"
	"eventdb/internal/wiredb"
)

// TestSelectWireRoundTrip: client.Select, over either wire against an
// in-process server, returns exactly what the encoding/json decoder it
// replaced makes of the same reply bytes, for a table of every value
// kind, a SELECT with no rows and a grouped aggregate.
func TestSelectWireRoundTrip(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	setup, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.CreateTable(client.TableSpec{Name: "kinds", Key: []string{"id"}, Columns: []client.ColumnSpec{
		{Name: "id", Kind: "int"}, {Name: "s", Kind: "string"}, {Name: "b", Kind: "bytes"},
		{Name: "at", Kind: "time"}, {Name: "ok", Kind: "bool"}, {Name: "f", Kind: "float"}, {Name: "n", Kind: "int"},
	}}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 10, 19, 17, 4, 56, 123456789, time.UTC)
	rows := []map[string]any{
		{"s": `say "hi" \ bye`, "b": []byte{0, 1, 0xfe, 0xff}, "at": at, "ok": true, "f": 3.0, "n": int64(1<<53 - 1)},
		{"s": "tab\tnl\nnul\x00bell\a", "b": []byte{}, "at": at.Add(-time.Hour), "ok": false, "f": -1.5, "n": int64(1 << 53)},
		{"s": "héllo, 世界 🎉 <&>  ", "f": 1e300, "n": int64(1<<53 + 1)},
		{"s": "bad \xff\xfe utf8", "f": 5e-324, "n": int64(-(1 << 53))},
		{"s": "", "f": math.Copysign(0, -1), "n": int64(math.MinInt64)},
		{"ok": true, "f": 0.1, "n": int64(math.MaxInt64)},
		{},
	}
	for i, row := range rows {
		row["id"] = int64(i)
		if _, err := wiredb.InsertRow(eng.DB, "kinds", row); err != nil {
			t.Fatal(err)
		}
	}
	specs := map[string]client.QuerySpec{
		"every kind": {Table: "kinds", Order: []client.OrderSpec{{Col: "id"}}},
		"no rows":    {Table: "kinds", Where: "id < 0", Select: []string{"id", "s"}},
		"aggregate": {Table: "kinds", Group: []string{"ok"}, Order: []client.OrderSpec{{Col: "ok"}},
			Aggs: []client.AggSpec{{Alias: "rows", Kind: "count"}, {Alias: "total", Kind: "sum", Col: "f"}, {Alias: "top", Kind: "max", Col: "n"}}},
	}
	for _, binary := range []bool{false, true} {
		var opts []client.Option
		if binary {
			opts = append(opts, client.WithBinary())
		}
		c, err := client.Dial(srv.Addr(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for name, spec := range specs {
			got, err := c.Select(spec)
			if err != nil {
				t.Fatalf("%s (binary %v): %v", name, binary, err)
			}
			raw, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := c.SelectRaw(raw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wiredb.OracleParseResult(reply)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (binary %v): reply %s\nSelect %#v\noracle %#v", name, binary, reply, got, want)
			}
			if name == "every kind" && len(got.Rows) != len(rows) || name == "no rows" && got.Rows == nil {
				t.Errorf("%s: %d rows (nil %v)", name, len(got.Rows), got.Rows == nil)
			}
		}
	}
}

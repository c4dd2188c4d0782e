package cq

import (
	"strings"
	"testing"
	"time"

	"eventdb/internal/event"
)

func TestParseSpecCountWindow(t *testing.T) {
	def, err := ParseSpec("wire", []byte(`{
		"filter": "sym = 'ACME'",
		"group_by": ["sym"],
		"aggs": [{"alias":"n","kind":"count"},{"alias":"vwap","kind":"avg","attr":"price"}],
		"window": {"kind":"count","size":100},
		"recompute": true
	}`)) // "recompute" named an evaluation mode once; it is ignored, not refused
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "wire" || def.Filter != "sym = 'ACME'" {
		t.Errorf("def = %+v", def)
	}
	if len(def.Aggs) != 2 || def.Aggs[0].Kind != Count || def.Aggs[1].Kind != Avg || def.Aggs[1].Attr != "price" {
		t.Errorf("aggs = %+v", def.Aggs)
	}
	if def.Window.Kind != CountWindow || def.Window.Size != 100 {
		t.Errorf("window = %+v", def.Window)
	}
	// The parsed def must compile and run.
	q, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Feed(event.New("trade", map[string]any{"sym": "ACME", "price": 10.0}))
	if err != nil || len(out) != 1 {
		t.Fatalf("feed: %v %v", out, err)
	}
}

func TestParseSpecTimeWindow(t *testing.T) {
	def, err := ParseSpec("w", []byte(`{
		"aggs": [{"kind":"max","attr":"level"}],
		"window": {"kind":"time","duration":"90s"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if def.Window.Kind != TimeWindow || def.Window.Duration != 90*time.Second {
		t.Errorf("window = %+v", def.Window)
	}
	// Alias defaults to the kind name.
	if def.Aggs[0].Alias != "max" {
		t.Errorf("alias = %q", def.Aggs[0].Alias)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ name, spec, want string }{
		{"bad json", `{`, "spec"},
		{"unknown field", `{"bogus":1,"aggs":[{"kind":"count"}],"window":{"kind":"count","size":1}}`, "bogus"},
		{"unknown agg", `{"aggs":[{"kind":"median","attr":"x"}],"window":{"kind":"count","size":1}}`, "median"},
		{"missing attr", `{"aggs":[{"kind":"sum"}],"window":{"kind":"count","size":1}}`, "attr"},
		{"unknown window", `{"aggs":[{"kind":"count"}],"window":{"kind":"session"}}`, "session"},
		{"bad duration", `{"aggs":[{"kind":"count"}],"window":{"kind":"time","duration":"oops"}}`, "duration"},
	}
	for _, tc := range cases {
		if _, err := ParseSpec("x", []byte(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestMarshalSpecRoundTrip(t *testing.T) {
	orig := Def{
		Name:    "rt",
		Filter:  "price > 5",
		GroupBy: []string{"sym", "venue"},
		Aggs: []AggDef{
			{Alias: "n", Kind: Count},
			{Alias: "total", Kind: Sum, Attr: "qty"},
			{Alias: "lo", Kind: Min, Attr: "price"},
		},
		Window: Window{Kind: TimeWindow, Duration: 2 * time.Minute},
	}
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec("rt", data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Filter != orig.Filter ||
		len(back.GroupBy) != 2 || len(back.Aggs) != 3 ||
		back.Window != orig.Window {
		t.Errorf("round trip: %+v != %+v", back, orig)
	}
	for i := range orig.Aggs {
		if back.Aggs[i] != orig.Aggs[i] {
			t.Errorf("agg %d: %+v != %+v", i, back.Aggs[i], orig.Aggs[i])
		}
	}
}

// JSON spec interchange for continuous queries, so foreign systems can
// attach standing windowed aggregations over the wire (the server's CQ
// command) without linking the Go API. The spec mirrors Def field for
// field; windows and aggregates are named by string so the format stays
// stable if the internal enums grow.
package cq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"eventdb/internal/query"
)

type jsonSpec struct {
	Filter  string     `json:"filter,omitempty"`
	GroupBy []string   `json:"group_by,omitempty"`
	Aggs    []jsonAgg  `json:"aggs"`
	Window  jsonWindow `json:"window"`
	// Recompute is accepted and ignored: it once selected the naive
	// evaluation mode, and a spec that carries it must keep parsing.
	Recompute bool `json:"recompute,omitempty"`
}

type jsonAgg struct {
	Alias string `json:"alias"`
	Kind  string `json:"kind"`
	Attr  string `json:"attr,omitempty"`
}

type jsonWindow struct {
	Kind     string `json:"kind"`               // "count" | "time"
	Size     int    `json:"size,omitempty"`     // count windows
	Duration string `json:"duration,omitempty"` // time windows, Go duration syntax
}

// ParseSpec decodes a JSON continuous-query spec into a Def. The name
// is supplied by the caller (on the wire it is the subscription id),
// not the spec, so one spec can be attached under many names. An
// aggregate's kind is a SELECT aggregate name (query.ParseAggKind),
// folded by the rules of the package doc; every kind but count needs an
// attr. The filter is only carried: the subscription feeding the query
// applies it (see Def.Filter).
//
// Example:
//
//	{"filter":"sym = 'ACME'","group_by":["sym"],
//	 "aggs":[{"alias":"n","kind":"count"},{"alias":"vwap","kind":"avg","attr":"price"}],
//	 "window":{"kind":"count","size":100}}
func ParseSpec(name string, data []byte) (Def, error) {
	var js jsonSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return Def{}, fmt.Errorf("cq: spec: %w", err)
	}
	def := Def{
		Name:    name,
		Filter:  js.Filter,
		GroupBy: js.GroupBy,
	}
	for i, a := range js.Aggs {
		kind, ok := query.ParseAggKind(a.Kind)
		if !ok {
			return Def{}, fmt.Errorf("cq: spec: agg %d: unknown kind %q", i, a.Kind)
		}
		if kind != query.Count && a.Attr == "" {
			return Def{}, fmt.Errorf("cq: spec: agg %d: %s needs an attr", i, a.Kind)
		}
		alias := a.Alias
		if alias == "" {
			alias = a.Kind
		}
		def.Aggs = append(def.Aggs, AggDef{Alias: alias, Kind: kind, Attr: a.Attr})
	}
	switch js.Window.Kind {
	case "count":
		def.Window = Window{Kind: CountWindow, Size: js.Window.Size}
	case "time":
		d, err := time.ParseDuration(js.Window.Duration)
		if err != nil {
			return Def{}, fmt.Errorf("cq: spec: window duration: %w", err)
		}
		def.Window = Window{Kind: TimeWindow, Duration: d}
	default:
		return Def{}, fmt.Errorf("cq: spec: unknown window kind %q (want \"count\" or \"time\")", js.Window.Kind)
	}
	return def, nil
}

// MarshalSpec renders a Def as the JSON spec ParseSpec accepts. The
// name is not part of the spec (see ParseSpec).
func MarshalSpec(def Def) ([]byte, error) {
	js := jsonSpec{
		Filter:  def.Filter,
		GroupBy: def.GroupBy,
	}
	for _, a := range def.Aggs {
		js.Aggs = append(js.Aggs, jsonAgg{Alias: a.Alias, Kind: a.Kind.String(), Attr: a.Attr})
	}
	switch def.Window.Kind {
	case CountWindow:
		js.Window = jsonWindow{Kind: "count", Size: def.Window.Size}
	case TimeWindow:
		js.Window = jsonWindow{Kind: "time", Duration: def.Window.Duration.String()}
	default:
		return nil, fmt.Errorf("cq: spec: unknown window kind %d", def.Window.Kind)
	}
	return json.Marshal(js)
}

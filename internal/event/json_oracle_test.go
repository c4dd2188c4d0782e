package event

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"eventdb/internal/val"
)

// The encoding/json decoder that UnmarshalJSONEvent was until the
// scanner replaced it, moved here verbatim (only the function's name
// changed). It is the oracle FuzzUnmarshalJSONEvent holds the scanner
// to; nothing outside the tests calls it.

type jsonEvent struct {
	ID     uint64         `json:"id,omitempty"`
	Type   string         `json:"type"`
	Source string         `json:"source,omitempty"`
	Time   string         `json:"time,omitempty"`
	Attrs  map[string]any `json:"attrs"`
}

// oracleUnmarshalJSONEvent parses a JSON event produced by a foreign system.
// JSON numbers that are integral become int values; others become floats.
// Missing IDs are assigned; missing times default to now.
func oracleUnmarshalJSONEvent(data []byte) (*Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return nil, fmt.Errorf("event: invalid JSON: %w", err)
	}
	if je.Type == "" {
		return nil, fmt.Errorf("event: JSON event missing type")
	}
	e := &Event{
		ID:     ID(je.ID),
		Type:   je.Type,
		Source: je.Source,
		Attrs:  make(map[string]val.Value, len(je.Attrs)),
	}
	if e.ID == 0 {
		e.ID = NextID()
	}
	if je.Time != "" {
		t, err := time.Parse(time.RFC3339Nano, je.Time)
		if err != nil {
			return nil, fmt.Errorf("event: bad time %q: %w", je.Time, err)
		}
		e.Time = t.UTC()
	} else {
		e.Time = time.Now().UTC()
	}
	for k, raw := range je.Attrs {
		v, err := fromJSONValue(raw)
		if err != nil {
			return nil, fmt.Errorf("event: attr %q: %w", k, err)
		}
		e.Attrs[k] = v
	}
	return e, nil
}

func fromJSONValue(raw any) (val.Value, error) {
	switch x := raw.(type) {
	case nil:
		return val.Null, nil
	case bool:
		return val.Bool(x), nil
	case string:
		return val.String(x), nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return val.Int(int64(x)), nil
		}
		return val.Float(x), nil
	default:
		return val.Null, fmt.Errorf("unsupported JSON value %T (nested objects/arrays are not scalar)", raw)
	}
}

// JSON spec interchange for patterns, so foreign systems can register
// temporal patterns over the wire (the server's PATTERN command)
// without linking the Go Builder API. The spec mirrors Step field for
// field; the strategy is named by string so the format stays stable if
// the internal enum grows.
package cep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Spec is the JSON form of a pattern.
type Spec struct {
	Steps []StepSpec `json:"steps"`
	// Within bounds first-to-last event time, Go duration syntax
	// ("30s", "5m"); empty means unbounded.
	Within string `json:"within,omitempty"`
	// Strategy is "skip-till-next" (default), "skip-till-any", or
	// "strict".
	Strategy string `json:"strategy,omitempty"`
}

// StepSpec is one pattern step.
type StepSpec struct {
	Alias   string `json:"alias"`
	Type    string `json:"type,omitempty"`  // "" matches any event type
	Guard   string `json:"guard,omitempty"` // expr syntax; "a.price" binds earlier steps
	Negated bool   `json:"negated,omitempty"`
}

// ParseSpec decodes a JSON pattern spec and compiles it. The name is
// supplied by the caller (on the wire it is the PATTERN argument), not
// the spec, so one spec can be registered under many names.
//
// Example:
//
//	{"steps":[{"alias":"a","type":"login"},
//	          {"alias":"b","type":"wire","guard":"user = a.user AND amount > 10000"}],
//	 "within":"30s"}
func ParseSpec(name string, data []byte) (*Pattern, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("cep: spec: %w", err)
	}
	return sp.Compile(name)
}

// Compile validates the spec and builds the pattern.
func (sp *Spec) Compile(name string) (*Pattern, error) {
	if len(sp.Steps) == 0 {
		return nil, fmt.Errorf("cep: spec: needs at least one step")
	}
	b := NewPattern(name)
	for _, st := range sp.Steps {
		if st.Negated {
			b.Unless(st.Alias, st.Type, st.Guard)
		} else {
			b.Next(st.Alias, st.Type, st.Guard)
		}
	}
	if sp.Within != "" {
		d, err := time.ParseDuration(sp.Within)
		if err != nil {
			return nil, fmt.Errorf("cep: spec: within: %w", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("cep: spec: within must be positive, got %q", sp.Within)
		}
		b.Within(d)
	}
	switch sp.Strategy {
	case "", "skip-till-next":
		// default
	case "skip-till-any":
		b.Strategy(SkipTillAny)
	case "strict":
		b.Strategy(Strict)
	default:
		return nil, fmt.Errorf("cep: spec: unknown strategy %q (want skip-till-next, skip-till-any, or strict)", sp.Strategy)
	}
	return b.Build()
}

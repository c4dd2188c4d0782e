package cep

import (
	"encoding/json"
	"slices"
	"testing"
)

// edgeSigs lists a pattern's trie-edge signatures, one per positive step.
func edgeSigs(p *Pattern) []string {
	var out []string
	lo := 0
	for _, si := range p.positive {
		out = append(out, segmentSig(p.Steps[lo:si+1]))
		lo = si + 1
	}
	return out
}

// FuzzPatternSpec holds the PATTERN spec decoder: on every input
// ParseSpec returns a pattern or an error and never panics, and a spec
// it accepts, rendered by marshalSpec, parses back to a pattern with the
// same trie edges, WITHIN and strategy.
func FuzzPatternSpec(f *testing.F) {
	rt, err := marshalSpec(roundTripPattern())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rt)
	f.Add([]byte(`{"steps":[{"alias":"a","type":"order","guard":"desk = 7"},{"alias":"b","type":"fill","guard":"cid = a.cid"}],"within":"1s"}`))
	f.Add([]byte(`{"steps":[{"alias":"a"},{"alias":"n","type":"B","negated":true,"guard":"x BETWEEN 1 AND 'z'"},{"alias":"b","guard":"'it''s' = s"}],"strategy":"strict"}`))
	for _, tc := range badSpecs {
		f.Add([]byte(tc.spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseSpec("f", data)
		if err != nil {
			return
		}
		out, err := marshalSpec(p)
		if err != nil {
			t.Fatalf("accepted %q, cannot render it: %v", data, err)
		}
		q, err := ParseSpec("f", out)
		if err != nil {
			t.Fatalf("accepted %q, refused its rendering %s: %v", data, out, err)
		}
		if !slices.Equal(edgeSigs(p), edgeSigs(q)) || p.Within != q.Within || p.Strategy != q.Strategy {
			t.Fatalf("accepted %q as %q %v %v, its rendering %s as %q %v %v",
				data, edgeSigs(p), p.Within, p.Strategy, out, edgeSigs(q), q.Within, q.Strategy)
		}
	})
}

// marshalSpec renders a pattern as the JSON spec ParseSpec accepts. The
// name is not part of the spec (see ParseSpec).
func marshalSpec(p *Pattern) ([]byte, error) {
	sp := Spec{}
	for _, st := range p.Steps {
		sp.Steps = append(sp.Steps, StepSpec{Alias: st.Alias, Type: st.EventType, Guard: st.Guard, Negated: st.Negated})
	}
	if p.Within > 0 {
		sp.Within = p.Within.String()
	}
	if p.Strategy != SkipTillNext {
		sp.Strategy = p.Strategy.String()
	}
	return json.Marshal(sp)
}

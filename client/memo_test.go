package client

import (
	"strings"
	"testing"

	"eventdb/internal/raceflag"
)

// TestBodyMemo: equal consecutive bodies are one decode and one *Event;
// anything else is a fresh decode, and neither a malformed body nor an
// oversized one is remembered.
func TestBodyMemo(t *testing.T) {
	var m bodyMemo
	a := []byte(`{"id":1,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"k":1}}`)
	b := []byte(`{"id":1,"type":"t","time":"2024-05-01T12:00:00Z","attrs":{"k":2}}`)
	orig := append([]byte(nil), a...)
	ea := m.decode(a)
	a[len(a)-3] = '9' // the read buffer moves on; the memo keeps its own copy
	if ea == nil || m.decode(orig) != ea {
		t.Fatal("an equal body was decoded again")
	}
	copy(a, orig)
	eb := m.decode(b)
	if eb == nil || eb == ea {
		t.Fatal("a different body was served from the memo")
	}
	if n, _ := eb.Attrs["k"].AsInt(); n != 2 {
		t.Fatalf("decoded %v", eb)
	}
	if m.decode(a) == ea {
		t.Fatal("the memo holds more than the last body")
	}
	if m.decode([]byte(`{"type":`)) != nil {
		t.Fatal("a malformed body decoded")
	}
	if e := m.decode(a); e == nil || e == ea {
		t.Fatal("a malformed body poisoned the memo")
	}
	big := []byte(`{"type":"t","attrs":{"pad":"` + strings.Repeat("p", maxMemoBody) + `"}}`)
	e1, e2 := m.decode(big), m.decode(big)
	if e1 == nil || e2 == nil || e1 == e2 || len(m.body) > maxMemoBody {
		t.Fatal("an oversized body was kept")
	}
}

// TestAllocsBodyMemoHit: the 15 repeats of a 16-way fan-out cost a
// compare each, nothing else.
func TestAllocsBodyMemoHit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var m bodyMemo
	body := []byte(`{"id":1,"type":"tick","time":"2024-05-01T12:00:00Z","attrs":{"pad":"` + strings.Repeat("p", 100) + `","seq":1}}`)
	first := m.decode(body)
	if allocs := testing.AllocsPerRun(1000, func() {
		if m.decode(body) != first {
			t.Fatal("memo miss")
		}
	}); allocs != 0 {
		t.Errorf("a memo hit allocates %v, want 0", allocs)
	}
}

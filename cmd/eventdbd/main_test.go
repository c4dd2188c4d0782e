package main

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"

	"eventdb/internal/core"
	"eventdb/internal/event"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string // substring of the refusal; "" = accepted
	}{
		{"defaults", validate("", "", false, 0), ""},
		{"follower with dir", validate("d", "127.0.0.1:7070", false, 0), ""},
		{"follower without dir", validate("", "127.0.0.1:7070", false, 0), "-follow requires -dir"},
		{"eviction under drop-on-full", validate("", "", true, 8), ""},
		{"eviction while blocking", validate("", "", false, 8), "-evict-after-drops requires -drop-on-full"},
		{"drop-on-full alone", validate("", "", true, 0), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: refused: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}

// TestAddRules: each -rule installs a rule whose matches are logged, and
// a definition without its "=" is refused.
func TestAddRules(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	if err := addRules(eng, []string{"hot=temp > 30"}); err != nil {
		t.Fatalf("hot=temp > 30: %v", err)
	}
	for _, temp := range []int{20, 35} {
		if err := eng.Ingest(event.New("reading", map[string]any{"temp": temp})); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(logged.String(), "rule hot matched"); got != 1 {
		t.Fatalf("rule hot logged %d matches, want 1:\n%s", got, logged.String())
	}
	if err := addRules(eng, []string{"bad"}); err == nil || !strings.Contains(err.Error(), "want name=condition") {
		t.Fatalf("bad: err = %v, want a refusal", err)
	}
	if err := addRules(eng, []string{"broken=temp >"}); err == nil {
		t.Fatal("broken=temp >: accepted an unparsable condition")
	}
}

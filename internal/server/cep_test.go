package server

import (
	"errors"
	"strings"
	"testing"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/queue"
)

// Wire tests for PATTERN/UNPATTERN: the error taxonomy, composite
// events reaching ordinary subscriptions, the stats counters, and
// durable registrations surviving a restart.

func TestPatternWireTaxonomy(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	rc := rawDial(t, srv)

	rc.send("PATTERN p")
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR badargs") {
		t.Errorf("missing payload → %q", got)
	}
	rc.send(`PATTERN p {"steps":`)
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR badjson") {
		t.Errorf("truncated JSON → %q", got)
	}
	rc.send(`PATTERN p {"steps":[]}`)
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR badspec") {
		t.Errorf("empty steps → %q", got)
	}
	rc.send(`PATTERN p {"steps":[{"alias":"a","type":"x","guard":"((("}]}`)
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR badspec") {
		t.Errorf("bad guard → %q", got)
	}
	rc.send(`PATTERN p {"steps":[{"alias":"a","type":"x"}]}`)
	if got := rc.readLine(); got != "OK" {
		t.Fatalf("register → %q", got)
	}
	rc.send(`PATTERN p {"steps":[{"alias":"a","type":"y"}]}`)
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR dup") {
		t.Errorf("duplicate → %q", got)
	}
	rc.send("UNPATTERN nope")
	if got := rc.readLine(); !strings.HasPrefix(got, "ERR nopattern") {
		t.Errorf("unknown unpattern → %q", got)
	}
	rc.send("UNPATTERN p")
	if got := rc.readLine(); got != "OK" {
		t.Fatalf("unpattern → %q", got)
	}
}

func TestPatternCompositeReachesSubscribers(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)

	spec := client.PatternSpec{
		Steps: []client.PatternStep{
			{Alias: "a", Type: "login"},
			{Alias: "b", Type: "wire", Guard: "user = a.user AND amount > 10000"},
		},
		Within: "1h",
	}
	if err := c.Pattern("fraud", spec); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("f", `$type = 'cep.fraud'`, 16)
	if err != nil {
		t.Fatal(err)
	}
	pub := dial(t, srv)
	if _, err := pub.Publish(event.New("login", map[string]any{"user": "mallory", "amount": 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(event.New("wire", map[string]any{"user": "mallory", "amount": 50000})); err != nil {
		t.Fatal(err)
	}
	ev := recv(t, sub)
	if ev.Type != "cep.fraud" {
		t.Fatalf("pushed type = %q", ev.Type)
	}
	if v, ok := ev.Get("a_user"); !ok {
		t.Error("a_user missing")
	} else if s, _ := v.AsString(); s != "mallory" {
		t.Errorf("a_user = %v", v)
	}

	// The json stats replies expose the automaton counters.
	rc := rawDial(t, srv)
	rc.send("STATS format=json")
	got := rc.readLine()
	if !strings.Contains(got, `"patterns":{"registered":1,"instances":`) {
		t.Errorf("STATS json without pattern counters: %q", got)
	}
	if !strings.Contains(got, `"matches":1`) {
		t.Errorf("STATS json matches: %q", got)
	}

	// Client-side teardown works and the pattern stops matching.
	if err := c.Unpattern("fraud"); err != nil {
		t.Fatal(err)
	}
	var serr *client.Error
	if err := c.Unpattern("fraud"); !errors.As(err, &serr) || serr.Code != "nopattern" {
		t.Errorf("double unpattern err = %v", err)
	}
}

func TestPatternSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	openSrv := func() (*core.Engine, *Server) {
		t.Helper()
		eng, err := core.Open(core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RestoreRegistrations(queue.Config{}); err != nil {
			t.Fatal(err)
		}
		srv, err := StartConfig(eng, "127.0.0.1:0", Config{})
		if err != nil {
			t.Fatal(err)
		}
		return eng, srv
	}
	eng, srv := openSrv()
	c := dial(t, srv)
	err := c.Pattern("pair", client.PatternSpec{Steps: []client.PatternStep{
		{Alias: "a", Type: "x"}, {Alias: "b", Type: "y"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, srv = openSrv()
	t.Cleanup(func() { srv.Close(); eng.Close() })
	if got := eng.Patterns(); len(got) != 1 || got[0] != "pair" {
		t.Fatalf("patterns after restart = %v", got)
	}
	c2 := dial(t, srv)
	sub, err := c2.Subscribe("s", `$type = 'cep.pair'`, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Publish(event.New("x", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Publish(event.New("y", nil)); err != nil {
		t.Fatal(err)
	}
	if ev := recv(t, sub); ev.Type != "cep.pair" {
		t.Fatalf("pushed type = %q", ev.Type)
	}
}

package server

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"eventdb/internal/core"
)

// TestConnSubscriptionsAreBrokerRules: a connection's SUBs and CQs are
// its broker rules and nothing else, seen over the wire. SUB, CQ and
// QSUB share one namespace of local ids, where a duplicate of any kind
// is refused with ERR dup; UNSUB removes each kind and frees its id;
// STATS counts each kind exactly; HELLO stays refused once the
// connection has subscribed, even after UNSUB; and 50 connections of
// 200 SUBs each, torn down while another connection publishes, leave
// the broker as they found it.
func TestConnSubscriptionsAreBrokerRules(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	base := eng.Broker.Len()
	cqSpec := `{"filter":"x > 1","aggs":[{"alias":"n","kind":"count"}],"window":{"kind":"count","size":4}}`
	c := rawDial(t, srv)
	stats := func(want string) {
		t.Helper()
		if got := c.mustOK("STATS"); !strings.HasSuffix(got, want) {
			t.Errorf("STATS = %q, want it to end %q", got, want)
		}
	}

	c.mustOK("SUB a x > 1")
	c.mustOK("CQ b " + cqSpec)
	c.mustOK("QSUB q manual ")
	stats("subs=1 cqs=1 qsubs=1")
	if got := eng.Broker.Len(); got != base+3 {
		t.Fatalf("broker len = %d, want %d", got, base+3)
	}
	for _, id := range []string{"a", "b", "q"} {
		for _, line := range []string{"SUB " + id + " y = 2", "CQ " + id + " " + cqSpec, "QSUB " + id + " manual "} {
			if got := c.ask(line); !strings.HasPrefix(got, "ERR "+codeDup+" ") {
				t.Errorf("%s → %q, want ERR %s", line, got, codeDup)
			}
		}
	}
	stats("subs=1 cqs=1 qsubs=1")

	// Each rule pushes under its own local id.
	c.mustOK(`PUB {"type":"t","attrs":{"x":5}}`)
	seen := map[string]bool{}
	for !seen["a"] || !seen["b"] {
		if len(c.pushes) == 0 {
			c.pushes = append(c.pushes, c.readLine())
		}
		if rest, ok := strings.CutPrefix(c.pushes[0], "EVT "); ok {
			id, _, _ := strings.Cut(rest, " ")
			seen[id] = true
		}
		c.pushes = c.pushes[1:]
	}

	c.mustOK("UNSUB a")
	stats("subs=0 cqs=1 qsubs=1")
	c.mustOK("UNSUB b")
	stats("subs=0 cqs=0 qsubs=1")
	c.mustOK("UNSUB q")
	stats("subs=0 cqs=0 qsubs=0")
	for _, id := range []string{"a", "b", "q"} {
		if got := c.ask("UNSUB " + id); !strings.HasPrefix(got, "ERR "+codeNoSub+" ") {
			t.Errorf("second UNSUB %s → %q, want ERR %s", id, got, codeNoSub)
		}
	}
	// The qsub.q binding outlives its consumer by design.
	if got := eng.Broker.Len(); got != base+1 {
		t.Fatalf("broker len after UNSUB = %d, want %d", got, base+1)
	}
	c.mustOK("CQ a " + cqSpec)
	c.mustOK("SUB b y = 2")
	stats("subs=1 cqs=1 qsubs=0")
	if got := c.ask("HELLO 2"); !strings.HasPrefix(got, "ERR "+codeConflict+" ") {
		t.Errorf("HELLO after SUB → %q", got)
	}
	h := rawDial(t, srv)
	h.mustOK("SUB s x > 1")
	h.mustOK("UNSUB s")
	if got := h.ask("HELLO 2"); !strings.HasPrefix(got, "ERR "+codeConflict+" ") {
		t.Errorf("HELLO after SUB and UNSUB → %q", got)
	}

	// Teardown under load: a publisher keeps matching the rules of the
	// connections while they close.
	before := eng.Broker.Len()
	pub := rawDial(t, srv)
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			line := ""
			_, err := fmt.Fprintf(pub.nc, "PUB {\"type\":\"t\",\"attrs\":{\"k\":%d}}\n", n%1000)
			if err == nil {
				line, err = pub.br.ReadString('\n')
			}
			if err == nil && !strings.HasPrefix(line, "OK ") {
				err = fmt.Errorf("PUB → %q", line)
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	const conns, subs = 50, 200
	rs := make([]*raw, conns)
	for i := range rs {
		r := rawDial(t, srv)
		var lines strings.Builder
		for j := 0; j < subs; j++ {
			fmt.Fprintf(&lines, "SUB s%d k = %d\n", j, (i+j)%1000)
		}
		if _, err := io.WriteString(r.nc, lines.String()); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < subs; j++ {
			if got := r.reply(); got != "OK" {
				t.Fatalf("conn %d SUB s%d → %q", i, j, got)
			}
		}
		rs[i] = r
	}
	if got := eng.Broker.Len(); got != before+conns*subs {
		t.Fatalf("broker len with %d SUBs = %d, want %d", conns*subs, got, before+conns*subs)
	}
	for _, r := range rs {
		r.nc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Broker.Len() != before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	if got := eng.Broker.Len(); got != before {
		t.Fatalf("broker len after teardown = %d, want %d", got, before)
	}
}

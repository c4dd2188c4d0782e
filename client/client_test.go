package client_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestPushAcrossConnections is the library's reason to exist: a
// subscriber dialed through the client package receives pushed EVT
// lines for events published on a *different* connection.
func TestPushAcrossConnections(t *testing.T) {
	srv := startServer(t)

	subConn, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	sub, err := subConn.Subscribe("alerts", "sev >= 3", 16)
	if err != nil {
		t.Fatal(err)
	}

	pubConn, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pubConn.Close()
	for sev := 1; sev <= 5; sev++ {
		if _, err := pubConn.Publish(client.NewEvent("alarm", map[string]any{"sev": sev})); err != nil {
			t.Fatal(err)
		}
	}

	for _, want := range []string{"3", "4", "5"} {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatal("channel closed")
			}
			if v, _ := ev.Get("sev"); v.String() != want {
				t.Errorf("sev = %v, want %s", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no push for sev=%s", want)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("dropped = %d", d)
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Ping(); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Publish(client.NewEvent("e", map[string]any{"g": g, "i": i})); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPublishBatchRoundTrip(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	evs := make([]*client.Event, 64)
	for i := range evs {
		evs[i] = client.NewEvent("t", map[string]any{"i": i})
	}
	n, err := c.PublishBatch(evs)
	if err != nil || n != 64 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if n, err := c.PublishBatch(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: n=%d err=%v", n, err)
	}
}

func TestSubscriptionIDValidation(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"", "has space", "has\nnewline"} {
		if _, err := c.Subscribe(bad, "", 4); err == nil {
			t.Errorf("id %q accepted", bad)
		}
	}
}

func TestCloseFailsPendingAndClosesSubs(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("s", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Error("event after close")
		}
	case <-time.After(time.Second):
		t.Error("channel not closed")
	}
	if err := c.Ping(); err == nil {
		t.Error("ping on closed conn succeeded")
	}
	if c.Err() == nil {
		t.Error("Err() nil after close")
	}
	if err := sub.Close(); err != nil {
		t.Errorf("sub close after conn close: %v", err)
	}
}

func TestServerShutdownClosesChannels(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("s", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Error("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Error("channel not closed after server shutdown")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Subscribe(fmt.Sprintf("s%d", i), "", 4); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Subs != 3 || st.CQs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRefusalThenCloseReportsRefusal: a server that refuses a connection
// the way eventdbd does over its limit — the ERR line on accept, then a
// hang-up — races the caller's first request three ways (the line lands
// before the request is queued, after it, or the write finds the socket
// already closed); every one must report the refusal, not the close.
func TestRefusalThenCloseReportsRefusal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fmt.Fprint(nc, "ERR limit connection limit reached\n")
			nc.(*net.TCPConn).CloseWrite()
			io.Copy(io.Discard, nc)
			nc.Close()
		}
	}()
	for i := 0; i < 500; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "connection limit") {
			t.Fatalf("round %d: ping err = %v, want the server's refusal", i, err)
		}
		c.Close()
	}
}

// TestDeliveredEventsCarryAttrs: the daemon keeps a published event's
// attributes as offsets into its bytes and builds no map, but an event
// the client delivers has its Attrs filled, over either wire, for code
// that reads the map directly.
func TestDeliveredEventsCarryAttrs(t *testing.T) {
	srv := startServer(t)
	for _, wire := range []struct {
		name string
		opts []client.Option
	}{{"text", nil}, {"binary", []client.Option{client.WithBinary()}}} {
		c, err := client.Dial(srv.Addr(), wire.opts...)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Subscribe("s-"+wire.name, "qty > 5", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Publish(client.NewEvent("tick", map[string]any{"sym": "ACME", "qty": 9, "neg": -3, "ok": true})); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-sub.C:
			sym, _ := ev.Attrs["sym"].AsString()
			qty, _ := ev.Attrs["qty"].AsInt()
			neg, _ := ev.Attrs["neg"].AsInt()
			ok, _ := ev.Attrs["ok"].AsBool()
			if len(ev.Attrs) != 4 || sym != "ACME" || qty != 9 || neg != -3 || !ok {
				t.Errorf("%s: delivered Attrs = %v", wire.name, ev.Attrs)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no delivery", wire.name)
		}
		c.Close()
	}
}
